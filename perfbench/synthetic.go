package main

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"time"

	"aid"
	"aid/internal/core"
	"aid/internal/grouptest"
	"aid/internal/predicate"
	"aid/internal/synthetic"
)

// The synthetic workload runs no simulator and no extraction: one
// caller runs Fig. 8 bundles, so core, acdag and grouptest do all the
// work. It exposes the cost of a scheduler change and bypasses replay
// and collection changes.

// syntheticSetups is how many warm-up bundles a run times; setup_s is
// their median.
const syntheticSetups = 5

// warmUpSynthetic is the fixed warm-up input, the same for every
// workload seed.
const warmUpSynthetic = -1

// runBundle runs one op untraced, as a user drives the Fig. 8 sweep: one
// instance per MaxT through all four approaches.
func runBundle(ctx context.Context, out *outcome, op []syntheticItem) ([]*aid.SyntheticSetting, []*failure) {
	settings := make([]*aid.SyntheticSetting, len(op))
	fails := make([]*failure, len(op))
	for i, it := range op {
		s, err := aid.RunSyntheticSweep(ctx, it.MaxT, 1, it.Seed, aid.SyntheticSweepOptions{Workers: 1})
		fails[i] = checkSynthetic(it.MaxT, err)
		if err == nil {
			out.work++
			settings[i] = s
			out.rounds += int(s.Cells[aid.ApproachAID].Average)
			out.roundRuns++
		}
	}
	return settings, fails
}

func runSynthetic(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{}
	maxTs := aid.Figure8MaxTs()
	warm := newSyntheticGen(warmUpSynthetic, maxTs).next()
	for range syntheticSetups {
		cfg.probe.probe()
		t0 := time.Now()
		if _, fails := runBundle(ctx, &outcome{}, warm); anyFailure(fails) != nil {
			return nil, fmt.Errorf("warm-up: %s", anyFailure(fails).detail)
		}
		out.setups = append(out.setups, opSample{t0, ms(time.Since(t0))})
	}
	cfg.probe.probe()
	gen := newSyntheticGen(cfg.seed, maxTs)
	cpu0, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		err = traceSynthetic(ctx, cfg, out, gen)
	} else {
		err = singleCaller(ctx, cfg, out, func() {
			op := gen.next()
			t0 := time.Now()
			_, fails := runBundle(ctx, out, op)
			out.latencies = append(out.latencies, opSample{t0, ms(time.Since(t0))})
			out.tally.add(fails...)
		})
	}
	if err != nil {
		return nil, err
	}
	cpu1, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	out.steal = stealShare(cpu0, cpu1)
	out.peakRSS, err = peakRSSMB("self")
	return out, err
}

func anyFailure(fails []*failure) *failure {
	for _, f := range fails {
		if f != nil {
			return f
		}
	}
	return nil
}

// traceSyntheticItem rebuilds one instance's sweep from the layers'
// public functions: synthetic.Generate, then core and grouptest over a
// scheduler shared by the four approaches, as the sweep shares it. It
// returns each approach's intervention count.
func traceSyntheticItem(ctx context.Context, rec *recorder, it syntheticItem) (map[aid.Approach]int, *failure) {
	label := fmt.Sprintf("maxT=%d", it.MaxT)
	id := rec.begin("generate", label)
	inst, err := synthetic.Generate(synthetic.Params{MaxThreads: it.MaxT, Seed: it.Seed, LateSymptoms: -1})
	rec.end(id, 0)
	if err != nil {
		return nil, failf(failError, "traced %s: %v", label, err)
	}
	w := inst.World
	if _, ok := any(w).(core.BatchIntervener); ok {
		// timedWorld would hide InterveneBatch and turn batching off.
		return nil, failf(failError, "synthetic.World now batches; timedWorld must too")
	}
	id = rec.begin("dag", label)
	dag, err := w.DAG()
	if err != nil {
		rec.end(id, 0)
		return nil, failf(failError, "traced %s: %v", label, err)
	}
	rec.end(id, dag.Len())

	sched := core.NewScheduler(&timedWorld{w: w, rec: rec}, core.SchedulerConfig{})
	// RunSyntheticSweep's per-approach seed for instance 0; the
	// equivalence guard catches any drift from it.
	seed := it.Seed ^ 0x5deece66d
	oracle := func(group []predicate.ID) (bool, error) {
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
	tests := make(map[aid.Approach]int, 4)
	for _, ap := range aid.Approaches() {
		if ap == aid.ApproachTAGT {
			id = rec.begin("tagt", label)
			res, err := grouptest.Halving(w.SortedPreds(), oracle, seed)
			if err != nil {
				rec.end(id, 0)
				return nil, failf(failError, "traced %s TAGT: %v", label, err)
			}
			rec.end(id, res.Tests)
			got := slices.Clone(res.Causes)
			want := slices.Clone(w.Path)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				return nil, failf(failPath, "traced %s TAGT found %v, want %v", label, got, want)
			}
			tests[ap] = res.Tests
			continue
		}
		var opts core.Options
		switch ap {
		case aid.ApproachAID:
			opts = core.AIDOptions(seed)
		case aid.ApproachAIDP:
			opts = core.AIDPOptions(seed)
		default:
			opts = core.AIDPBOptions(seed)
		}
		opts.Scheduler = sched
		id = rec.begin("discover", label)
		res, err := core.Discover(ctx, dag, sched.Intervener(), opts)
		if err != nil {
			rec.end(id, 0)
			return nil, failf(failError, "traced %s %s: %v", label, ap, err)
		}
		rec.end(id, res.Interventions())
		if !reflect.DeepEqual(res.Path, w.WantPath()) {
			return nil, failf(failPath, "traced %s %s found %v, want %v", label, ap, res.Path, w.WantPath())
		}
		tests[ap] = res.Interventions()
	}
	return tests, nil
}

// traceSynthetic runs each bundle untraced and traced, in alternating
// order; the traced bundle must reproduce every Fig. 8 cell.
func traceSynthetic(ctx context.Context, cfg config, out *outcome, gen *syntheticGen) error {
	rec := newRecorder()
	var cost runtimeCost
	var tracedLat, untracedLat []float64
	start := time.Now()
	for opID, deadline := 1, start.Add(cfg.seconds); time.Now().Before(deadline); opID++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		op := gen.next()
		var settings []*aid.SyntheticSetting
		var fails []*failure
		got := make([]map[aid.Approach]int, len(op))
		untraced := func() {
			before := readMem()
			t0 := time.Now()
			var f []*failure
			settings, f = runBundle(ctx, out, op)
			untracedLat = append(untracedLat, ms(time.Since(t0)))
			cost.add(before, readMem())
			fails = append(fails, f...)
		}
		traced := func() {
			t0 := time.Now()
			id := rec.beginOp(opID)
			for i, it := range op {
				var f *failure
				got[i], f = traceSyntheticItem(ctx, rec, it)
				fails = append(fails, f)
			}
			rec.end(id, 0)
			tracedLat = append(tracedLat, ms(time.Since(t0)))
		}
		if opID%2 == 1 {
			untraced()
			traced()
		} else {
			traced()
			untraced()
		}
		for i, it := range op {
			if settings[i] == nil || got[i] == nil {
				continue // already counted as failed
			}
			for _, ap := range aid.Approaches() {
				if cell := settings[i].Cells[ap]; cell.Average != float64(got[i][ap]) {
					fails = append(fails, failf(failEquivalence, "MaxT %d seed %d %s: traced %d interventions, sweep %v",
						it.MaxT, it.Seed, ap, got[i][ap], cell.Average))
				}
			}
		}
		out.tally.add(fails...)
	}
	out.elapsed = time.Since(start)

	t := totals(rec.spans)
	layers := newLayers()
	spanLayers(layers, t)
	cost.report(layers)
	overhead(layers, map[string][]float64{"op": tracedLat}, map[string][]float64{"op": untracedLat})
	out.layers = layers
	if cfg.spans != "" {
		return rec.write(cfg.spans)
	}
	return nil
}
