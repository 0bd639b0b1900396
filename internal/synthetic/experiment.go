package synthetic

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"

	"aid/internal/core"
	"aid/internal/grouptest"
	"aid/internal/par"
	"aid/internal/predicate"
)

// ErrMisidentified reports that an approach's discovered causes differ
// from the ground truth. On deterministic worlds this is a bug; under
// noise it is a measurable event — a round's trials can all miss the
// failure's manifestation, making a spurious group look causal.
var ErrMisidentified = errors.New("discovered causes do not match ground truth")

// Approach names the four strategies compared in Fig. 8.
type Approach string

// The four approaches of Fig. 8.
const (
	TAGT  Approach = "TAGT"
	AIDPB Approach = "AID-P-B"
	AIDP  Approach = "AID-P"
	AID   Approach = "AID"
)

// Approaches lists them in the paper's legend order.
var Approaches = []Approach{TAGT, AIDPB, AIDP, AID}

// Cell aggregates one (approach, MAXt) cell of Fig. 8.
type Cell struct {
	Approach  Approach
	MaxT      int
	Average   float64 // average #interventions (left plot)
	WorstCase int     // maximum #interventions (right plot)
	Instances int
}

// Setting aggregates one MAXt column: all four approaches plus the
// average predicate count (the grey dotted line).
type Setting struct {
	MaxT     int
	AvgPreds float64
	AvgD     float64
	Cells    map[Approach]Cell
	// Misidentified counts instances whose discovered path deviated
	// from the ground truth — zero on deterministic worlds, possible
	// under noise when every trial of a round misses the manifestation.
	Misidentified map[Approach]int
}

// Noise configures optional runtime nondeterminism for experiment runs
// (zero value = deterministic single-observation worlds). A noisy
// world's rounds go through the adaptive trial oracle
// (core.RobustIntervener with ManifestFloor = ManifestProb) and the
// robust scheduler: each trial is one FlakyWorld run, and the oracle
// decides per round how many trials its confidence bound needs.
type Noise struct {
	// ManifestProb is the per-run chance the bug trigger recurs.
	ManifestProb float64
	// SymptomNoise is the per-run chance a spurious predicate flickers.
	SymptomNoise float64
}

func (n Noise) enabled() bool {
	return n.SymptomNoise > 0 || (n.ManifestProb > 0 && n.ManifestProb < 1)
}

// RunInstance measures one approach on one instance, verifying that the
// discovered causal path matches the ground truth.
func RunInstance(ctx context.Context, inst *Instance, approach Approach, seed int64) (int, error) {
	return runInstance(ctx, inst, approach, seed, Noise{}, nil)
}

// runInstance measures one approach, optionally drawing outcomes
// through a scheduler shared with the other approaches measured on the
// same instance. The world is a pure function of the forced-predicate
// set, so sharing never changes a measured count — every approach still
// logs one test per oracle call — it only skips re-evaluating groups an
// earlier approach already intervened on (the singleton confirmations
// of TAGT and AID overlap heavily). Noisy runs never share a
// scheduler: each approach draws its own FlakyWorld noise stream.
func runInstance(ctx context.Context, inst *Instance, approach Approach, seed int64, noise Noise, shared *core.Scheduler) (int, error) {
	w := inst.World
	var sched *core.Scheduler
	var oracle grouptest.Oracle
	if noise.enabled() {
		fw := NewFlakyWorld(w, noise.ManifestProb, noise.SymptomNoise, seed^0x51ab5)
		floor := noise.ManifestProb
		if floor <= 0 || floor > 1 {
			floor = 1
		}
		robust := core.NewRobustIntervener(fw, core.RobustConfig{
			ManifestFloor: floor,
			Seed:          seed ^ 0x9e3779b9,
		})
		sched = core.NewScheduler(robust, core.SchedulerConfig{})
		oracle = func(group []predicate.ID) (bool, error) {
			obs, err := robust.Intervene(ctx, group)
			if err != nil {
				return false, err
			}
			for _, o := range obs {
				if o.Failed {
					return false, nil
				}
			}
			return true, nil
		}
	} else {
		sched = shared
		if sched == nil {
			sched = core.NewScheduler(w, core.SchedulerConfig{})
		}
		oracle = func(group []predicate.ID) (bool, error) {
			obs, _, err := sched.Outcome(ctx, core.Request{Preds: group})
			if err != nil {
				return false, err
			}
			for _, o := range obs {
				if o.Failed {
					return false, nil
				}
			}
			return true, nil
		}
	}
	switch approach {
	case TAGT:
		// The Fig. 8 baseline uses the same halving scheme as GIWP so
		// the ablation isolates AID's ordering and pruning; see
		// grouptest.Halving.
		res, err := grouptest.Halving(w.SortedPreds(), oracle, seed)
		if err != nil {
			return 0, err
		}
		got := append([]predicate.ID(nil), res.Causes...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		want := append([]predicate.ID(nil), w.Path...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !reflect.DeepEqual(got, want) {
			return res.Tests, fmt.Errorf("synthetic: TAGT found %v, want %v: %w", got, want, ErrMisidentified)
		}
		return res.Tests, nil
	case AID, AIDP, AIDPB:
		var opts core.Options
		switch approach {
		case AID:
			opts = core.AIDOptions(seed)
		case AIDP:
			opts = core.AIDPOptions(seed)
		default:
			opts = core.AIDPBOptions(seed)
		}
		opts.Scheduler = sched
		dag, err := w.DAG()
		if err != nil {
			return 0, err
		}
		res, err := core.Discover(ctx, dag, sched.Intervener(), opts)
		if err != nil {
			return 0, err
		}
		if !reflect.DeepEqual(res.Path, w.WantPath()) {
			return res.Interventions(), fmt.Errorf("synthetic: %s found %v, want %v: %w",
				approach, res.Path, w.WantPath(), ErrMisidentified)
		}
		return res.Interventions(), nil
	default:
		return 0, fmt.Errorf("synthetic: unknown approach %q", approach)
	}
}

// SweepOptions configures a RunSetting sweep beyond its shape.
type SweepOptions struct {
	// Noise is the optional runtime-nondeterminism model.
	Noise Noise
	// Workers is the instance-pool width; <= 0 means GOMAXPROCS. Every
	// instance is seeded independently and aggregated in instance order,
	// so the Setting is identical for any width.
	Workers int
}

// RunSetting generates `instances` applications for one MAXt value and
// measures all four approaches on each (Fig. 8, one x-axis position).
func RunSetting(ctx context.Context, maxT, instances int, baseSeed int64) (*Setting, error) {
	return RunSettingOpts(ctx, maxT, instances, baseSeed, SweepOptions{})
}

// instResult is one instance's measurement across the four approaches.
type instResult struct {
	n, d  int
	tests map[Approach]int
	misid map[Approach]bool
}

// RunSettingOpts is RunSetting with explicit sweep options; instances
// run concurrently on the worker pool.
func RunSettingOpts(ctx context.Context, maxT, instances int, baseSeed int64, opts SweepOptions) (*Setting, error) {
	s := &Setting{
		MaxT:          maxT,
		Cells:         make(map[Approach]Cell),
		Misidentified: make(map[Approach]int),
	}
	noise := opts.Noise
	results, err := par.Map(ctx, instances, opts.Workers, func(i int) (instResult, error) {
		seed := baseSeed + int64(i)*7919
		inst, err := Generate(Params{MaxThreads: maxT, Seed: seed, LateSymptoms: -1})
		if err != nil {
			return instResult{}, err
		}
		r := instResult{
			n: inst.N, d: inst.D,
			tests: make(map[Approach]int, len(Approaches)),
			misid: make(map[Approach]bool, len(Approaches)),
		}
		// One intervention scheduler per deterministic instance: the four
		// approaches share its outcome cache, so a group any of them
		// already tested (TAGT's and GIWP's singleton confirmations
		// overlap almost entirely) is never re-evaluated. Counts are
		// unaffected — each approach logs its own tests — only the
		// wall-clock drops.
		var shared *core.Scheduler
		if !noise.enabled() {
			shared = core.NewScheduler(inst.World, core.SchedulerConfig{})
		}
		for _, ap := range Approaches {
			n, err := runInstance(ctx, inst, ap, seed^0x5deece66d, noise, shared)
			if err != nil {
				if noise.enabled() && errors.Is(err, ErrMisidentified) {
					r.misid[ap] = true
				} else {
					return instResult{}, err
				}
			}
			r.tests[ap] = n
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	sums := make(map[Approach]int)
	worst := make(map[Approach]int)
	var predSum, dSum int
	for _, r := range results {
		predSum += r.n
		dSum += r.d
		for _, ap := range Approaches {
			if r.misid[ap] {
				s.Misidentified[ap]++
			}
			n := r.tests[ap]
			sums[ap] += n
			if n > worst[ap] {
				worst[ap] = n
			}
		}
	}
	s.AvgPreds = float64(predSum) / float64(instances)
	s.AvgD = float64(dSum) / float64(instances)
	for _, ap := range Approaches {
		s.Cells[ap] = Cell{
			Approach:  ap,
			MaxT:      maxT,
			Average:   float64(sums[ap]) / float64(instances),
			WorstCase: worst[ap],
			Instances: instances,
		}
	}
	return s, nil
}

// Figure8MaxTs are the x-axis values of Fig. 8.
var Figure8MaxTs = []int{2, 10, 18, 26, 34, 42}
