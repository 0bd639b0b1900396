package grouptest

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"aid/internal/predicate"
)

// setOracle answers true iff the tested group intersects the causal set
// (counterfactual semantics: intervening on any causal predicate stops
// the failure).
func setOracle(causal map[predicate.ID]bool, counter *int) Oracle {
	return func(group []predicate.ID) (bool, error) {
		if counter != nil {
			*counter++
		}
		for _, g := range group {
			if causal[g] {
				return true, nil
			}
		}
		return false, nil
	}
}

func ids(n int) []predicate.ID {
	out := make([]predicate.ID, n)
	for i := range out {
		out[i] = predicate.ID(fmt.Sprintf("p%03d", i))
	}
	return out
}

func TestAdaptiveFindsSingleCause(t *testing.T) {
	items := ids(16)
	causal := map[predicate.ID]bool{"p007": true}
	res, err := Adaptive(items, setOracle(causal, nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Causes, []predicate.ID{"p007"}) {
		t.Fatalf("causes = %v", res.Causes)
	}
	if res.Tests != len(res.Causes)+len(res.Spurious)-len(items)+res.Tests {
		t.Log("test count recorded:", res.Tests)
	}
	if len(res.Causes)+len(res.Spurious) != len(items) {
		t.Fatalf("classification incomplete: %d + %d != %d",
			len(res.Causes), len(res.Spurious), len(items))
	}
}

func TestAdaptiveFindsAllCauses(t *testing.T) {
	items := ids(32)
	causal := map[predicate.ID]bool{"p003": true, "p017": true, "p029": true}
	res, err := Adaptive(items, setOracle(causal, nil), 5)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]predicate.ID(nil), res.Causes...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []predicate.ID{"p003", "p017", "p029"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("causes = %v, want %v", got, want)
	}
}

func TestAdaptiveNoCauses(t *testing.T) {
	items := ids(10)
	calls := 0
	res, err := Adaptive(items, setOracle(nil, &calls), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Causes) != 0 || len(res.Spurious) != 10 {
		t.Fatalf("result = %+v", res)
	}
	// With no causes every test is negative: halving clears the pool in
	// about log n + a few tests, certainly fewer than n.
	if res.Tests > len(items) {
		t.Fatalf("%d tests for all-spurious pool of %d", res.Tests, len(items))
	}
}

func TestAdaptiveEmptyPool(t *testing.T) {
	res, err := Adaptive(nil, setOracle(nil, nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tests != 0 {
		t.Fatalf("tests = %d on empty pool", res.Tests)
	}
}

func TestAdaptiveOracleError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Adaptive(ids(4), func([]predicate.ID) (bool, error) { return false, boom }, 1)
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

// Property: TAGT identifies exactly the causal set for random instances
// and stays within the D·⌈log₂N⌉ + D + ⌈log₂N⌉ envelope.
func TestAdaptiveProperty(t *testing.T) {
	prop := func(seed int64, nRaw, dRaw uint8) bool {
		n := 2 + int(nRaw)%60
		d := int(dRaw) % 5
		if d > n {
			d = n
		}
		items := ids(n)
		causal := map[predicate.ID]bool{}
		for i := 0; i < d; i++ {
			causal[items[(i*7)%n]] = true
		}
		res, err := Adaptive(items, setOracle(causal, nil), seed)
		if err != nil {
			return false
		}
		if len(res.Causes) != len(causal) {
			return false
		}
		for _, c := range res.Causes {
			if !causal[c] {
				return false
			}
		}
		// Classic TAGT: one pool test per defective plus a ⌈log₂N⌉
		// binary search each, plus the final clearing test.
		bound := len(causal)*(int(math.Ceil(math.Log2(float64(n))))+1) + 1
		return res.Tests <= bound
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLinear(t *testing.T) {
	items := ids(6)
	causal := map[predicate.ID]bool{"p002": true, "p004": true}
	calls := 0
	res, err := Linear(items, setOracle(causal, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tests != 6 || calls != 6 {
		t.Fatalf("linear tests = %d", res.Tests)
	}
	if len(res.Causes) != 2 || len(res.Spurious) != 4 {
		t.Fatalf("result = %+v", res)
	}
	boom := errors.New("x")
	if _, err := Linear(items, func([]predicate.ID) (bool, error) { return false, boom }); !errors.Is(err, boom) {
		t.Fatal("linear error not propagated")
	}
}

func TestAutoSwitchesStrategy(t *testing.T) {
	items := ids(64) // n/log2(n) = 64/6 ≈ 10.7
	// Many defectives: linear (test count = n exactly).
	res, err := Auto(items, 12, setOracle(map[predicate.ID]bool{"p000": true}, nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tests != len(items) {
		t.Fatalf("Auto with many defectives should be linear, tests = %d", res.Tests)
	}
	// Few defectives: adaptive (far fewer than n tests for a singleton).
	res, err = Auto(items, 1, setOracle(map[predicate.ID]bool{"p000": true}, nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tests >= len(items) {
		t.Fatalf("Auto with few defectives should group-test, tests = %d", res.Tests)
	}
}

func TestHalvingFindsCauses(t *testing.T) {
	items := ids(24)
	causal := map[predicate.ID]bool{"p004": true, "p019": true}
	res, err := Halving(items, setOracle(causal, nil), 3)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]predicate.ID(nil), res.Causes...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !reflect.DeepEqual(got, []predicate.ID{"p004", "p019"}) {
		t.Fatalf("Halving causes = %v", got)
	}
	if len(res.Causes)+len(res.Spurious) != len(items) {
		t.Fatal("Halving classification incomplete")
	}
	boom := errors.New("x")
	if _, err := Halving(items, func([]predicate.ID) (bool, error) { return false, boom }, 1); !errors.Is(err, boom) {
		t.Fatal("Halving error not propagated")
	}
}

func TestNonAdaptiveSingleDefective(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16, 33} {
		items := ids(n)
		for _, d := range []int{0, n / 2, n - 1} {
			causal := map[predicate.ID]bool{items[d]: true}
			calls := 0
			res, err := NonAdaptive(items, setOracle(causal, &calls))
			if err != nil {
				t.Fatalf("n=%d d=%d: %v", n, d, err)
			}
			if len(res.Causes) != 1 || res.Causes[0] != items[d] {
				t.Fatalf("n=%d d=%d: causes = %v", n, d, res.Causes)
			}
			bits := 0
			for 1<<bits < n {
				bits++
			}
			if res.Tests > bits+1 {
				t.Fatalf("n=%d: %d tests, want <= %d", n, res.Tests, bits+1)
			}
		}
	}
}

func TestNonAdaptiveNoDefectives(t *testing.T) {
	items := ids(9)
	res, err := NonAdaptive(items, setOracle(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Causes) != 0 || len(res.Spurious) != 9 {
		t.Fatalf("result = %+v", res)
	}
}

func TestNonAdaptiveMultipleDefectivesDetected(t *testing.T) {
	items := ids(16)
	// Indices 3 (0011) and 12 (1100) OR to 15 — out of... in range but
	// not defective: verification must reject.
	causal := map[predicate.ID]bool{items[3]: true, items[12]: true}
	if _, err := NonAdaptive(items, setOracle(causal, nil)); err == nil {
		t.Fatal("multiple defectives decoded without error")
	}
}

func TestNonAdaptiveEmpty(t *testing.T) {
	res, err := NonAdaptive(nil, setOracle(nil, nil))
	if err != nil || res.Tests != 0 {
		t.Fatalf("empty pool: %v %+v", err, res)
	}
}

func TestUpperBound(t *testing.T) {
	if got := UpperBound(16, 2); got != 8 {
		t.Fatalf("UpperBound(16,2) = %d, want 8", got)
	}
	if got := UpperBound(0, 3); got != 0 {
		t.Fatalf("UpperBound(0,3) = %d", got)
	}
	if got := UpperBound(10, 0); got != 0 {
		t.Fatalf("UpperBound(10,0) = %d", got)
	}
}
