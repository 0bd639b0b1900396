package synthetic

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"aid/internal/core"
	"aid/internal/predicate"
)

func mustGen(t *testing.T, maxT int, seed int64) *Instance {
	t.Helper()
	inst, err := Generate(Params{MaxThreads: maxT, Seed: seed, LateSymptoms: -1})
	if err != nil {
		t.Fatalf("Generate(maxT=%d, seed=%d): %v", maxT, seed, err)
	}
	return inst
}

func TestGenerateValidWorlds(t *testing.T) {
	for _, maxT := range []int{1, 2, 10, 40} {
		for seed := int64(0); seed < 30; seed++ {
			inst := mustGen(t, maxT, seed)
			if err := inst.World.Validate(); err != nil {
				t.Fatalf("maxT=%d seed=%d: %v", maxT, seed, err)
			}
			if inst.N < 1 || inst.D < 1 || inst.D > inst.N {
				t.Fatalf("degenerate instance: N=%d D=%d", inst.N, inst.D)
			}
			if inst.Branches > maxT {
				t.Fatalf("branches %d exceed MAXt %d", inst.Branches, maxT)
			}
			if len(inst.World.Path) != inst.D {
				t.Fatalf("path length %d != D %d", len(inst.World.Path), inst.D)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGen(t, 10, 5)
	b := mustGen(t, 10, 5)
	if !reflect.DeepEqual(a.World.Preds, b.World.Preds) ||
		!reflect.DeepEqual(a.World.Path, b.World.Path) ||
		!reflect.DeepEqual(a.World.Parent, b.World.Parent) {
		t.Fatal("generation not deterministic")
	}
	c := mustGen(t, 10, 6)
	if reflect.DeepEqual(a.World.Preds, c.World.Preds) && reflect.DeepEqual(a.World.Path, c.World.Path) {
		t.Fatal("different seeds produced identical worlds")
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	if _, err := Generate(Params{MaxThreads: 0}); err == nil {
		t.Fatal("MaxThreads=0 accepted")
	}
}

func TestWorldFireSemantics(t *testing.T) {
	inst := mustGen(t, 5, 1)
	w := inst.World
	// No intervention: everything fires, failure occurs.
	fired, failed := w.Fire(nil)
	if !failed {
		t.Fatal("un-intervened world must fail")
	}
	for _, p := range w.Preds {
		if !fired.Has(p) {
			t.Fatalf("%s did not fire in failing run", p)
		}
	}
	// Forcing the root cause silences the whole chain.
	fired, failed = w.Fire([]predicate.ID{w.Path[0]})
	if failed {
		t.Fatal("forcing the root cause must stop the failure")
	}
	for _, c := range w.Path {
		if fired.Has(c) {
			t.Fatalf("causal predicate %s fired despite root intervention", c)
		}
	}
	// Forcing the last causal predicate stops the failure but upstream
	// causes still fire.
	fired, failed = w.Fire([]predicate.ID{w.Last()})
	if failed {
		t.Fatal("forcing the last cause must stop the failure")
	}
	if len(w.Path) > 1 && !fired.Has(w.Path[0]) {
		t.Fatal("upstream cause should still fire")
	}
}

func TestWorldInterveneRejectsF(t *testing.T) {
	inst := mustGen(t, 3, 2)
	if _, err := inst.World.Intervene(context.Background(), []predicate.ID{predicate.FailureID}); err == nil {
		t.Fatal("intervening on F accepted")
	}
}

func TestAllApproachesRecoverGroundTruth(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		inst := mustGen(t, 8, seed)
		for _, ap := range Approaches {
			n, err := RunInstance(context.Background(), inst, ap, seed)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, ap, err)
			}
			if n < 1 {
				t.Fatalf("seed %d %s: zero interventions", seed, ap)
			}
			if n > 4*inst.N+8 {
				t.Fatalf("seed %d %s: %d interventions for N=%d", seed, ap, n, inst.N)
			}
		}
	}
}

func TestRunInstanceUnknownApproach(t *testing.T) {
	inst := mustGen(t, 2, 1)
	if _, err := RunInstance(context.Background(), inst, Approach("nope"), 1); err == nil {
		t.Fatal("unknown approach accepted")
	}
}

// Property: for random instances, AID never needs more interventions
// than a linear scan, and its discovered path always matches ground
// truth (checked inside RunInstance).
//
// The sweep is a genuine property test again — no pinned RNG. Before
// the intervention scheduler's known-positive deduction (see
// core/scheduler.go and giwp), GIWP retested the last candidate of a
// pool it had already proven to contain a cause, which pushed rare
// single-thread chains to N+2 rounds (Generate seed 97 at MaxThreads=1
// was the recorded counterexample) and forced this test to pin its
// sampling; the deduction eliminated the wasted round and a 36k-sample
// sweep over MaxThreads ∈ [1,40] found no violation.
func TestAIDBeatsLinearProperty(t *testing.T) {
	prop := func(seedRaw int64, maxTRaw uint8) bool {
		maxT := 1 + int(maxTRaw)%40
		inst, err := Generate(Params{MaxThreads: maxT, Seed: seedRaw, LateSymptoms: -1})
		if err != nil {
			return false
		}
		n, err := RunInstance(context.Background(), inst, AID, seedRaw)
		if err != nil {
			return false
		}
		return n <= inst.N+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}

	// Dedicated single-thread chain sweep: MaxThreads=1 is where the
	// N+2 regression lived (chains have no junctions, so branch pruning
	// costs nothing and every round is a GIWP halving — the wasted
	// confirmation round was maximally visible). A fixed dense seed
	// range keeps the regression from hiding behind quick.Check's
	// sampling ever again.
	t.Run("MaxT1ChainSweep", func(t *testing.T) {
		for seed := int64(0); seed < 500; seed++ {
			inst, err := Generate(Params{MaxThreads: 1, Seed: seed, LateSymptoms: -1})
			if err != nil {
				t.Fatal(err)
			}
			n, err := RunInstance(context.Background(), inst, AID, seed)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if n > inst.N+1 {
				t.Errorf("seed %d: AID used %d rounds for N=%d, exceeding the N+1 linear bound", seed, n, inst.N)
			}
		}
	})

	// The former counterexample, pinned as a regression test: Generate
	// seed 97 at MaxThreads=1 (a 5-predicate single-thread chain) needed
	// N+2 = 7 rounds before the scheduler fix; it must now meet the
	// bound.
	t.Run("MaxT1_Seed97_RestoredToNPlus1", func(t *testing.T) {
		inst, err := Generate(Params{MaxThreads: 1, Seed: 97, LateSymptoms: -1})
		if err != nil {
			t.Fatal(err)
		}
		n, err := RunInstance(context.Background(), inst, AID, 97)
		if err != nil {
			t.Fatal(err)
		}
		if n > inst.N+1 {
			t.Fatalf("regression: AID used %d rounds for N=%d, exceeding the N+1 linear bound the scheduler fix restored", n, inst.N)
		}
	})
}

func TestRunSettingAggregates(t *testing.T) {
	s, err := RunSetting(context.Background(), 6, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if s.AvgPreds <= 0 || s.AvgD <= 0 {
		t.Fatalf("averages not populated: %+v", s)
	}
	for _, ap := range Approaches {
		c := s.Cells[ap]
		if c.Instances != 10 || c.Average <= 0 || c.WorstCase < int(c.Average) {
			t.Fatalf("bad cell for %s: %+v", ap, c)
		}
	}
	// The paper's headline ordering on averages: AID <= AID-P-B <= TAGT
	// within sampling noise; assert the endpoints strictly.
	if s.Cells[AID].Average > s.Cells[TAGT].Average {
		t.Fatalf("AID average %v above TAGT %v", s.Cells[AID].Average, s.Cells[TAGT].Average)
	}
}

func TestLateSymptomsDiscardedWithoutIntervention(t *testing.T) {
	inst, err := Generate(Params{MaxThreads: 4, Seed: 9, LateSymptoms: 2})
	if err != nil {
		t.Fatal(err)
	}
	dag, err := inst.World.DAG()
	if err != nil {
		t.Fatal(err)
	}
	if !dag.Has("LATE.P0") || !dag.Has("LATE.P1") {
		t.Fatal("late symptoms missing from DAG")
	}
	if dag.Precedes("LATE.P0", predicate.FailureID) {
		t.Fatal("late symptom should not precede F")
	}
	res, err := core.Discover(context.Background(), dag, inst.World, core.AIDOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rounds {
		for _, p := range r.Intervened {
			if p == "LATE.P0" || p == "LATE.P1" {
				t.Fatal("late symptom was intervened")
			}
		}
	}
	found := 0
	for _, p := range res.Spurious {
		if p == "LATE.P0" || p == "LATE.P1" {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("late symptoms not classified spurious: %v", res.Spurious)
	}
}
