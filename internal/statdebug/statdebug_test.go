package statdebug

import (
	"math"
	"reflect"
	"testing"

	"aid/internal/predicate"
)

// corpus builds a synthetic predicate corpus via the streaming ingest.
// rows maps predicate IDs to occurrence vectors aligned with outcomes
// (true = failed run).
func corpus(outcomes []bool, rows map[predicate.ID][]bool) *predicate.Corpus {
	c := predicate.NewCorpus()
	c.AddPred(predicate.FailurePredicate())
	for id := range rows {
		c.AddPred(predicate.Predicate{ID: id})
	}
	for i, failed := range outcomes {
		occ := make(map[predicate.ID]predicate.Occurrence)
		if failed {
			occ[predicate.FailureID] = predicate.Occurrence{}
		}
		for id, vec := range rows {
			if vec[i] {
				occ[id] = predicate.Occurrence{}
			}
		}
		c.AddLog(string(rune('a'+i)), failed, occ)
	}
	return c
}

func TestScoresPrecisionRecall(t *testing.T) {
	// Outcomes: S S F F
	outcomes := []bool{false, false, true, true}
	c := corpus(outcomes, map[predicate.ID][]bool{
		"perfect":   {false, false, true, true},  // P=1, R=1
		"partial":   {false, true, true, true},   // P=2/3, R=1
		"weak":      {false, false, true, false}, // P=1, R=1/2
		"invariant": {true, true, true, true},    // P=1/2, R=1
		"never":     {false, false, false, false},
	})
	scores := Scores(c)
	byID := map[predicate.ID]Score{}
	for _, s := range scores {
		byID[s.Pred] = s
	}
	check := func(id predicate.ID, p, r float64) {
		t.Helper()
		s := byID[id]
		if math.Abs(s.Precision-p) > 1e-12 || math.Abs(s.Recall-r) > 1e-12 {
			t.Errorf("%s: P=%v R=%v, want P=%v R=%v", id, s.Precision, s.Recall, p, r)
		}
	}
	check("perfect", 1, 1)
	check("partial", 2.0/3, 1)
	check("weak", 1, 0.5)
	check("invariant", 0.5, 1)
	check("never", 0, 0)
	// F1 ordering: perfect first among non-failure predicates.
	if scores[0].Pred != predicate.FailureID && scores[0].Pred != "perfect" {
		t.Fatalf("top score = %s", scores[0].Pred)
	}
}

func TestFullyDiscriminative(t *testing.T) {
	outcomes := []bool{false, false, true, true}
	c := corpus(outcomes, map[predicate.ID][]bool{
		"perfect":   {false, false, true, true},
		"partial":   {false, true, true, true},
		"weak":      {false, false, true, false},
		"invariant": {true, true, true, true},
	})
	got := FullyDiscriminative(c)
	if !reflect.DeepEqual(got, []predicate.ID{"perfect"}) {
		t.Fatalf("FullyDiscriminative = %v, want [perfect]", got)
	}
}

func TestFullyDiscriminativeExcludesInvariants(t *testing.T) {
	// With only failures in the corpus, everything looks perfect —
	// reject the corpus instead of reporting invariants as causes.
	outcomes := []bool{true, true}
	c := corpus(outcomes, map[predicate.ID][]bool{
		"invariant": {true, true},
	})
	if got := FullyDiscriminative(c); got != nil {
		t.Fatalf("FullyDiscriminative on failure-only corpus = %v, want nil", got)
	}
}

func TestDiscriminativeThresholds(t *testing.T) {
	outcomes := []bool{false, false, true, true}
	c := corpus(outcomes, map[predicate.ID][]bool{
		"perfect": {false, false, true, true},
		"partial": {false, true, true, true}, // P=2/3
		"weak":    {false, false, true, false},
	})
	got := Discriminative(c, 0.5, 1)
	want := map[predicate.ID]bool{"perfect": true, "partial": true}
	if len(got) != 2 {
		t.Fatalf("Discriminative = %v", got)
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("unexpected discriminative predicate %s", id)
		}
	}
	if got := Discriminative(c, 1, 1); len(got) != 1 || got[0] != "perfect" {
		t.Fatalf("strict Discriminative = %v", got)
	}
}

func TestGenerateCompounds(t *testing.T) {
	// a and b each occur in one success, but never together outside
	// failures; their conjunction is fully discriminative.
	outcomes := []bool{false, false, true, true}
	c := corpus(outcomes, map[predicate.ID][]bool{
		"a": {true, false, true, true},
		"b": {false, true, true, true},
	})
	comps := GenerateCompounds(c, 0)
	if len(comps) != 1 {
		t.Fatalf("generated %d compounds, want 1", len(comps))
	}
	comp := comps[0]
	if comp.ID != "and(a,b)" {
		t.Fatalf("compound ID = %s", comp.ID)
	}
	full := FullyDiscriminative(c)
	found := false
	for _, id := range full {
		if id == comp.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("compound not fully discriminative after materialization: %v", full)
	}
	// Re-running does not duplicate.
	if again := GenerateCompounds(c, 0); len(again) != 0 {
		t.Fatalf("second pass generated %d compounds, want 0", len(again))
	}
}

func TestGenerateCompoundsRespectsCap(t *testing.T) {
	outcomes := []bool{false, false, false, true}
	rows := map[predicate.ID][]bool{}
	// Four predicates, each occurring in one distinct success and in the
	// failure: every pair is fully discriminative (6 pairs).
	rows["p0"] = []bool{true, false, false, true}
	rows["p1"] = []bool{false, true, false, true}
	rows["p2"] = []bool{false, false, true, true}
	rows["p3"] = []bool{false, false, false, true} // alone fully discr.
	c := corpus(outcomes, rows)
	comps := GenerateCompounds(c, 2)
	if len(comps) != 2 {
		t.Fatalf("generated %d compounds, want cap 2", len(comps))
	}
}

func TestEntropyGain(t *testing.T) {
	outcomes := []bool{false, false, true, true}
	c := corpus(outcomes, map[predicate.ID][]bool{
		"perfect": {false, false, true, true},
		"useless": {true, false, true, false},
	})
	gPerfect := EntropyGain(c, "perfect")
	gUseless := EntropyGain(c, "useless")
	if math.Abs(gPerfect-1) > 1e-12 {
		t.Fatalf("perfect predicate gain = %v, want 1 bit", gPerfect)
	}
	if gUseless > 1e-12 {
		t.Fatalf("useless predicate gain = %v, want 0", gUseless)
	}
	if g := EntropyGain(predicate.NewCorpus(), "x"); g != 0 {
		t.Fatalf("empty corpus gain = %v", g)
	}
}
