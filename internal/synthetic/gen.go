package synthetic

import (
	"fmt"
	"math"
	"strconv"

	"aid/internal/predicate"
	"aid/internal/rngfast"
)

// Params configures one generated application.
type Params struct {
	// MaxThreads is the paper's MAXt: it bounds the number of parallel
	// branches at any junction of the AC-DAG (§6.3.1: the branch count
	// is upper-bounded by the thread count).
	MaxThreads int
	// Seed makes generation deterministic.
	Seed int64
	// LateSymptoms adds predicates that manifest only after the failure
	// (no AC-DAG path to F); AID discards them without intervention, as
	// in the Kafka case study. Negative = choose randomly (0–2).
	LateSymptoms int
}

// Instance is a generated application with its ground truth.
type Instance struct {
	World *World
	// N is the number of fully-discriminative predicates (excluding F).
	N int
	// D is the causal-path length.
	D int
	// Junctions and Branches describe the fork-join skeleton.
	Junctions int
	Branches  int
}

// Generate builds a random application: a fork-join skeleton of J
// phases, each with up to MaxThreads parallel branches of chained
// predicates; a causal route through one branch per phase carrying D
// causal predicates; spurious branches hanging off the trigger or off
// causal predicates (side effects); and optional post-failure symptoms.
func Generate(p Params) (*Instance, error) {
	if p.MaxThreads < 1 {
		return nil, fmt.Errorf("synthetic: MaxThreads must be >= 1, got %d", p.MaxThreads)
	}
	rng := rngfast.New(p.Seed)

	phases := 1 + rng.Intn(4)                          // J ∈ [1,4]
	branchLen := func() int { return 1 + rng.Intn(4) } // n ∈ [1,4]

	// The skeleton's shape first: lens[j][b] is the length of phase j's
	// branch b. A branch's bound is redrawn at every step, so its length
	// is known only once its loop ends; drawing the shape before naming
	// anything sizes every slice and the parent map up front (for the
	// most late symptoms the parameters allow).
	lens := make([][]int, phases)
	maxBranches, n, edges := 0, 0, 0
	for j := range lens {
		nb := 1 + rng.Intn(p.MaxThreads)
		maxBranches = max(maxBranches, nb)
		lens[j] = make([]int, nb)
		for b := range lens[j] {
			for k := 0; k < branchLen(); k++ {
				lens[j][b]++
			}
			n += lens[j][b]
			edges += lens[j][b] - 1 // the branch's chain
		}
		if j > 0 {
			edges += len(lens[j-1]) * nb // the phase bipartite
		}
	}
	lastPhase := len(lens[phases-1])
	edges += lastPhase // last-phase leaves reach F
	maxLate := p.LateSymptoms
	if maxLate < 0 {
		maxLate = 2
	}

	w := &World{
		Preds:  make([]predicate.ID, 0, n+maxLate),
		Edges:  make([][2]predicate.ID, 0, edges+maxLate*lastPhase),
		Parent: make(map[predicate.ID]predicate.ID, n+maxLate),
	}
	// perPhase[j][b] is phase j's branch b, a run of w.Preds.
	perPhase := make([][][]predicate.ID, phases)
	for j, ls := range lens {
		perPhase[j] = make([][]predicate.ID, len(ls))
		for b, l := range ls {
			start := len(w.Preds)
			for k := range l {
				w.Preds = append(w.Preds, predicate.ID("J"+strconv.Itoa(j)+".B"+strconv.Itoa(b)+".P"+strconv.Itoa(k)))
			}
			perPhase[j][b] = w.Preds[start:len(w.Preds):len(w.Preds)]
		}
	}

	// AC-DAG edges: chains within branches; full bipartite between the
	// leaves of phase j-1 and the roots of phase j; last-phase leaves
	// reach F.
	for j, bs := range perPhase {
		for _, br := range bs {
			for k := 1; k < len(br); k++ {
				w.Edges = append(w.Edges, [2]predicate.ID{br[k-1], br[k]})
			}
			if j > 0 {
				for _, prev := range perPhase[j-1] {
					w.Edges = append(w.Edges, [2]predicate.ID{prev[len(prev)-1], br[0]})
				}
			}
			if j == phases-1 {
				w.Edges = append(w.Edges, [2]predicate.ID{br[len(br)-1], predicate.FailureID})
			}
		}
	}

	// The causal route: one branch per phase; its concatenated
	// predicates are the candidate slots for the D causal predicates,
	// and routePhase holds each slot's phase.
	var route []predicate.ID
	var routePhase []int
	for j, bs := range perPhase {
		pick := bs[rng.Intn(len(bs))]
		route = append(route, pick...)
		for range pick {
			routePhase = append(routePhase, j)
		}
	}
	maxD := int(float64(n) / math.Max(1, math.Log2(float64(n))))
	if maxD < 1 {
		maxD = 1
	}
	if maxD > len(route) {
		maxD = len(route)
	}
	d := 1 + rng.Intn(maxD)

	// Choose D route slots, keeping the last route predicate causal so
	// the failure is anchored at the end of the route.
	slots := rng.Perm(len(route) - 1)[:d-1]
	slots = append(slots, len(route)-1)
	sortInts(slots)
	causal := make(map[predicate.ID]bool, d)
	pathPhase := make([]int, 0, d)
	for _, s := range slots {
		w.Path = append(w.Path, route[s])
		pathPhase = append(pathPhase, routePhase[s])
		causal[route[s]] = true
	}

	// True parents. Causal chain first.
	for i, c := range w.Path {
		if i == 0 {
			w.Parent[c] = ""
		} else {
			w.Parent[c] = w.Path[i-1]
		}
	}
	// Remaining predicates: within a branch, chain off the previous
	// predicate (so silencing an ancestor silences the suffix); branch
	// roots hang off the trigger, or — for occasional side-effect
	// branches — off a causal predicate from an earlier phase.
	for j, bs := range perPhase {
		for _, br := range bs {
			for k, id := range br {
				if causal[id] {
					continue
				}
				var parent predicate.ID
				if k > 0 {
					parent = br[k-1]
				} else {
					parent = "" // trigger
					if j > 0 && rng.Intn(3) == 0 {
						// Side-effect branch: caused by an earlier
						// causal predicate (which precedes this branch
						// root in the AC-DAG via the phase bipartite).
						if c := lastCausalBefore(w.Path, pathPhase, j); c != "" {
							parent = c
						}
					}
				}
				w.Parent[id] = parent
			}
		}
	}

	// Post-failure symptoms: fire with the trigger but manifest after F
	// (descendants of the last phase, no path to F).
	late := p.LateSymptoms
	if late < 0 {
		late = rng.Intn(3)
	}
	for i := 0; i < late; i++ {
		id := predicate.ID("LATE.P" + strconv.Itoa(i))
		w.Preds = append(w.Preds, id)
		w.Parent[id] = ""
		for _, br := range perPhase[phases-1] {
			w.Edges = append(w.Edges, [2]predicate.ID{br[len(br)-1], id})
		}
	}

	inst := &Instance{
		World:     w,
		N:         len(w.Preds),
		D:         d,
		Junctions: phases,
		Branches:  maxBranches,
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return inst, nil
}

// lastCausalBefore returns the latest causal predicate located in a
// phase strictly before j, or ""; phase[i] is path[i]'s phase.
func lastCausalBefore(path []predicate.ID, phase []int, j int) predicate.ID {
	var best predicate.ID
	for i, c := range path {
		if phase[i] < j {
			best = c
		}
	}
	return best
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for k := i; k > 0 && xs[k] < xs[k-1]; k-- {
			xs[k], xs[k-1] = xs[k-1], xs[k]
		}
	}
}
