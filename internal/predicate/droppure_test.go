package predicate

import "testing"

func TestDropPure(t *testing.T) {
	pure := map[string]bool{"Pure": true, "AlsoPure": true}
	oracle := func(m string) bool { return pure[m] }

	c := NewCorpus()
	c.AddPred(Predicate{ID: "keep-impure", Methods: []string{"Impure"}})
	c.AddPred(Predicate{ID: "keep-mixed", Methods: []string{"Pure", "Impure"}})
	c.AddPred(Predicate{ID: "drop-single", Methods: []string{"Pure"}})
	c.AddPred(Predicate{ID: "drop-multi", Methods: []string{"Pure", "AlsoPure"}})
	// No anchor methods (the failure predicate F): never pruned.
	c.AddPred(Predicate{ID: "keep-anchorless"})
	c.AddLog("s", false, map[ID]Occurrence{"keep-impure": {}, "drop-single": {}})
	c.AddLog("f", true, map[ID]Occurrence{"keep-mixed": {}, "drop-multi": {}})

	if removed := c.DropPure(nil); removed != 0 {
		t.Fatalf("nil oracle removed %d predicates", removed)
	}
	if removed := c.DropPure(oracle); removed != 2 {
		t.Fatalf("DropPure removed %d, want 2", removed)
	}
	if c.EffectPruned() != 2 {
		t.Fatalf("EffectPruned = %d, want 2", c.EffectPruned())
	}
	for _, id := range []ID{"keep-impure", "keep-mixed", "keep-anchorless"} {
		if c.Pred(id) == nil {
			t.Errorf("%s was dropped", id)
		}
	}
	for _, id := range []ID{"drop-single", "drop-multi"} {
		if c.Pred(id) != nil {
			t.Errorf("%s survived", id)
		}
	}
	// The handle index is rebuilt: occurrence counts for survivors stay
	// reachable through the byID map.
	if occ, inFail, failed := c.counts("keep-mixed"); occ != 1 || inFail != 1 || failed != 1 {
		t.Fatalf("Counts(keep-mixed) = (%d,%d,%d) after compaction", occ, inFail, failed)
	}
	// A second drop accumulates into the same counter.
	c.AddPred(Predicate{ID: "late-pure", Methods: []string{"AlsoPure"}})
	if removed := c.DropPure(oracle); removed != 1 {
		t.Fatalf("second DropPure removed %d, want 1", removed)
	}
	if c.EffectPruned() != 3 {
		t.Fatalf("EffectPruned = %d after second drop, want 3", c.EffectPruned())
	}
}
