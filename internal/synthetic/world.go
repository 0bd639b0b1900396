// Package synthetic generates applications with known root causes for
// the paper's synthetic benchmark (§7.2 / Fig. 8).
//
// The paper generates multi-threaded applications with MAXt ∈ [2, 40]
// threads, N ∈ [4, 284] fully-discriminative predicates, and a known
// causal path of D ∈ [1, N/log N] predicates, then measures how many
// group interventions TAGT, AID-P-B, AID-P and AID need to recover the
// path. We model each application as a ground-truth causal world: a
// tree of predicates rooted at a hidden bug trigger, a designated
// causal chain whose last element determines the failure, and an
// AC-DAG that over-approximates the tree with temporal precedence
// (fork-join phases whose parallel branches are mutually unordered).
// Interventions evaluate against the ground truth, which is exactly
// what the paper's synthetic study measures — every approach finds the
// correct path; only the intervention counts differ.
package synthetic

import (
	"context"
	"fmt"
	"sort"

	"aid/internal/acdag"
	"aid/internal/bitvec"
	"aid/internal/core"
	"aid/internal/predicate"
)

// World is a ground-truth causal model with a known causal path.
type World struct {
	// Preds lists every predicate (excluding the failure predicate F).
	Preds []predicate.ID
	// Parent is the true causal tree; "" denotes the hidden bug trigger,
	// which fires in every (simulated) failing run.
	Parent map[predicate.ID]predicate.ID
	// Path is the true causal chain C0 … Ck; the failure occurs iff Ck
	// fires. Every other predicate is a spurious symptom.
	Path []predicate.ID
	// Edges are the AC-DAG edges (a superset of the true tree's
	// transitive reduction, before closure).
	Edges [][2]predicate.ID

	dag *acdag.DAG
	// evalIdx/evalOrder/parentIdx cache the parent tree in index form
	// (built lazily, like dag): Fire is the hot inner loop of the
	// synthetic sweep — every intervention of every approach evaluates
	// it — so it runs as one linear pass over a precomputed topological
	// order instead of a recursive map-memoized walk. The world is
	// immutable once evaluated (Generate never mutates after Validate).
	evalIdx   map[predicate.ID]int
	evalOrder []int32
	parentIdx []int32
	lastIdx   int
	// table is the observation table over Preds (entry i is Preds[i]),
	// so a fired set is the evaluation's bits as they stand; onPath
	// marks the causal chain's indices.
	table  *core.PredTable
	onPath bitvec.Vec
}

// DAG returns (building lazily) the world's AC-DAG including F.
func (w *World) DAG() (*acdag.DAG, error) {
	if w.dag != nil {
		return w.dag, nil
	}
	nodes := append(append([]predicate.ID(nil), w.Preds...), predicate.FailureID)
	d, err := acdag.FromEdges(nodes, w.Edges)
	if err != nil {
		return nil, fmt.Errorf("synthetic: %w", err)
	}
	w.dag = d
	return d, nil
}

// Last returns the final causal predicate (the failure's direct cause).
func (w *World) Last() predicate.ID { return w.Path[len(w.Path)-1] }

// ensureEval builds the indexed parent tree and its topological
// evaluation order (parents before children).
func (w *World) ensureEval() {
	if w.evalOrder != nil {
		return
	}
	n := len(w.Preds)
	w.evalIdx = make(map[predicate.ID]int, n)
	for i, id := range w.Preds {
		w.evalIdx[id] = i
	}
	w.parentIdx = make([]int32, n)
	for i, id := range w.Preds {
		if par := w.Parent[id]; par != "" {
			w.parentIdx[i] = int32(w.evalIdx[par])
		} else {
			w.parentIdx[i] = -1
		}
	}
	// Topological order over the parent tree: repeated passes settle in
	// O(depth) rounds (generation chains are short; this runs once).
	w.evalOrder = make([]int32, 0, n)
	placed := make([]bool, n)
	for len(w.evalOrder) < n {
		progress := false
		for i := 0; i < n; i++ {
			if placed[i] {
				continue
			}
			if p := w.parentIdx[i]; p < 0 || placed[p] {
				placed[i] = true
				w.evalOrder = append(w.evalOrder, int32(i))
				progress = true
			}
		}
		if !progress {
			panic("synthetic: parent cycle in world")
		}
	}
	w.lastIdx = w.evalIdx[w.Last()]
	w.table = core.NewPredTable(w.Preds)
	w.onPath = bitvec.New(n)
	for _, c := range w.Path {
		w.onPath.SetInCap(w.evalIdx[c])
	}
}

// Fire evaluates the ground truth under an intervention on forced: a
// predicate fires iff it is not forced and its parent fires (the
// trigger always fires). IDs that name no predicate of the world are
// ignored. It returns the fired set and whether the failure occurs.
func (w *World) Fire(forced []predicate.ID) (core.PredSet, bool) {
	w.ensureEval()
	fired := w.fire(forced)
	return w.table.Set(fired), fired.Has(w.lastIdx)
}

// fire returns the fired bits over Preds' indices. One vector serves as
// both the forced marks and the result: the pass visits parents before
// children, so a predicate's bit still holds its forced mark when the
// pass reaches it, and its parent's bit already holds whether the
// parent fired.
func (w *World) fire(forced []predicate.ID) bitvec.Vec {
	bits := bitvec.New(len(w.Preds))
	for _, p := range forced {
		if i, ok := w.evalIdx[p]; ok {
			bits.SetInCap(i)
		}
	}
	for _, i := range w.evalOrder {
		v := !bits.Has(int(i))
		if v {
			if p := w.parentIdx[i]; p >= 0 {
				v = bits.Has(int(p))
			}
		}
		if v {
			bits.SetInCap(int(i))
		} else {
			bits.Unset(int(i))
		}
	}
	return bits
}

// Intervene implements core.Intervener: one deterministic observation
// per round (the paper's deterministic-effect assumption).
func (w *World) Intervene(ctx context.Context, preds []predicate.ID) ([]core.Observation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, p := range preds {
		if p == predicate.FailureID {
			return nil, fmt.Errorf("synthetic: cannot intervene on the failure predicate")
		}
	}
	fired, failed := w.Fire(preds)
	return []core.Observation{{Failed: failed, Observed: fired}}, nil
}

// Validate checks internal consistency: the causal chain is parented
// correctly, every parent precedes its child in the AC-DAG, and the
// path reaches F.
func (w *World) Validate() error {
	if len(w.Path) == 0 {
		return fmt.Errorf("synthetic: empty causal path")
	}
	set := make(map[predicate.ID]bool, len(w.Preds))
	for _, p := range w.Preds {
		if set[p] {
			return fmt.Errorf("synthetic: predicate %s listed twice", p)
		}
		set[p] = true
	}
	for i, c := range w.Path {
		if !set[c] {
			return fmt.Errorf("synthetic: path element %s not a predicate", c)
		}
		want := predicate.ID("")
		if i > 0 {
			want = w.Path[i-1]
		}
		if w.Parent[c] != want {
			return fmt.Errorf("synthetic: path element %s has parent %s, want %q", c, w.Parent[c], want)
		}
	}
	d, err := w.DAG()
	if err != nil {
		return err
	}
	for child, par := range w.Parent {
		if par == "" {
			continue
		}
		if !d.Precedes(par, child) {
			return fmt.Errorf("synthetic: true parent %s does not precede %s in the AC-DAG", par, child)
		}
	}
	if !d.Precedes(w.Last(), predicate.FailureID) {
		return fmt.Errorf("synthetic: last causal predicate %s has no AC-DAG path to F", w.Last())
	}
	return nil
}

// WantPath returns the expected discovery result: the causal chain
// followed by F.
func (w *World) WantPath() []predicate.ID {
	return append(append([]predicate.ID(nil), w.Path...), predicate.FailureID)
}

// SortedPreds returns the predicates in stable order (test helper).
func (w *World) SortedPreds() []predicate.ID {
	out := append([]predicate.ID(nil), w.Preds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
