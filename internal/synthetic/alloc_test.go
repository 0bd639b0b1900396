package synthetic

import (
	"context"
	"fmt"
	"testing"

	"aid/internal/core"
	"aid/internal/predicate"
)

// binaryWorld returns a valid world of n predicates whose causal tree
// is a binary heap (the parent of p_i is p_(i-1)/2) with causal path
// p0 → p1.
func binaryWorld(t *testing.T, n int) *World {
	t.Helper()
	w := &World{Parent: map[predicate.ID]predicate.ID{}}
	for i := range n {
		id := predicate.ID(fmt.Sprintf("p%03d", i))
		w.Preds = append(w.Preds, id)
		w.Parent[id] = ""
		if i > 0 {
			par := w.Preds[(i-1)/2]
			w.Parent[id] = par
			w.Edges = append(w.Edges, [2]predicate.ID{par, id})
		}
	}
	w.Path = w.Preds[:2]
	w.Edges = append(w.Edges, [2]predicate.ID{w.Preds[1], predicate.FailureID})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	return w
}

var interveneSink []core.Observation

// TestInterveneAllocsIndependentOfSize pins World.Intervene's
// allocations to a count that does not grow with the world: a
// 280-predicate world allocates as many objects per intervention as a
// 10-predicate one (the observation slice and one bitset), so the Fig. 8
// sweep's evaluations cost the same number of allocations at every
// MaxT.
func TestInterveneAllocsIndependentOfSize(t *testing.T) {
	ctx := context.Background()
	counts := map[int]float64{}
	for _, n := range []int{10, 280} {
		w := binaryWorld(t, n)
		group := []predicate.ID{w.Preds[1], w.Preds[n-1], w.Preds[n/2]}
		counts[n] = testing.AllocsPerRun(50, func() {
			obs, err := w.Intervene(ctx, group)
			if err != nil {
				t.Fatal(err)
			}
			interveneSink = obs
		})
		if obs := interveneSink[0]; obs.Failed || has(obs.Observed, w.Preds[1]) || !has(obs.Observed, w.Preds[0]) {
			t.Fatalf("n=%d: forcing the last cause gave %+v", n, obs)
		}
	}
	t.Logf("World.Intervene allocates %.0f objects at 10 predicates, %.0f at 280", counts[10], counts[280])
	if counts[10] != counts[280] {
		t.Fatalf("World.Intervene allocates %.0f objects at 10 predicates but %.0f at 280", counts[10], counts[280])
	}
}
