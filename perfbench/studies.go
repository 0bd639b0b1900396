package main

import (
	"context"
	"fmt"
	"time"

	"aid"
	"aid/internal/acdag"
	"aid/internal/casestudy"
	"aid/internal/core"
	"aid/internal/explain"
	"aid/internal/grouptest"
	"aid/internal/inject"
	"aid/internal/predicate"
	"aid/internal/statdebug"
	"aid/internal/trace"
)

// The studies workload is the product path: one caller runs passes over
// the six Fig. 7 case studies, each study a fresh pipeline with live
// collection and no shared memo. Collection, extraction and replays do
// the work, so every change to those layers or to the TAGT baseline
// moves it.

// studiesSetups is how many times a run sets up; setup_s is the median.
const studiesSetups = 3

// buildStudies constructs the six case studies afresh, so each set-up
// pays for building and compiling them (aid.CaseStudies would hand out
// the process-wide memoized, already compiled instances).
func buildStudies() []*aid.CaseStudy {
	return []*aid.CaseStudy{
		casestudy.Npgsql(), casestudy.Kafka(), casestudy.CosmosDB(),
		casestudy.Network(), casestudy.BuildAndTest(), casestudy.HealthTelemetry(),
	}
}

// runStudy is one untraced debugging run, as a user drives it.
func runStudy(ctx context.Context, st *aid.CaseStudy, seed int64) (*aid.Report, error) {
	return aid.New(aid.WithCorpusSize(50, 50), aid.WithSeed(seed)).Run(ctx, aid.FromStudy(st))
}

// setUpStudies builds the studies and runs one warm-up pass (seed 1 for
// every study, whatever the workload seed), studiesSetups times.
func setUpStudies(ctx context.Context, cfg config, out *outcome) (map[string]*aid.CaseStudy, []string, error) {
	var studies []*aid.CaseStudy
	for range studiesSetups {
		cfg.probe.probe()
		t0 := time.Now()
		studies = buildStudies()
		for _, st := range studies {
			rep, err := runStudy(ctx, st, 1)
			if f := checkStudyRun(st.Name, rep, err, st.WantRootPrefix); f != nil {
				return nil, nil, fmt.Errorf("warm-up: %s", f.detail)
			}
		}
		out.setups = append(out.setups, opSample{t0, ms(time.Since(t0))})
	}
	cfg.probe.probe()
	byName := make(map[string]*aid.CaseStudy, len(studies))
	names := make([]string, len(studies))
	for i, st := range studies {
		byName[st.Name] = st
		names[i] = st.Name
	}
	return byName, names, nil
}

func runStudies(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{}
	byName, names, err := setUpStudies(ctx, cfg, out)
	if err != nil {
		return nil, err
	}
	gen := newStudiesGen(cfg.seed, names)
	cpu0, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		err = traceStudies(ctx, cfg, out, byName, gen)
	} else {
		err = timeStudies(ctx, cfg, out, byName, gen)
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

// passStudies runs one op untraced and checks every run.
func passStudies(ctx context.Context, out *outcome, byName map[string]*aid.CaseStudy, op []studyItem) ([]*aid.Report, []*failure) {
	reps := make([]*aid.Report, len(op))
	fails := make([]*failure, len(op))
	for i, it := range op {
		st := byName[it.Study]
		rep, err := runStudy(ctx, st, it.Seed)
		fails[i] = checkStudyRun(it.Study, rep, err, st.WantRootPrefix)
		if fails[i] == nil {
			out.work++
		}
		if err == nil {
			reps[i] = rep
			out.rounds += rep.AIDInterventions
			out.roundRuns++
		}
	}
	return reps, fails
}

func timeStudies(ctx context.Context, cfg config, out *outcome, byName map[string]*aid.CaseStudy, gen *studiesGen) error {
	return singleCaller(ctx, cfg, out, func() {
		op := gen.next()
		t0 := time.Now()
		_, fails := passStudies(ctx, out, byName, op)
		out.latencies = append(out.latencies, opSample{t0, ms(time.Since(t0))})
		out.tally.add(fails...)
	})
}

// tracedRun is what the rebuilt op found for one study, plus the layer
// counts the spans do not carry.
type tracedRun struct {
	root          string
	rounds, tests int
	kept, missed  int
}

// replaysPerRound mirrors aid.New's default WithReplays(5).
const replaysPerRound = 5

// traceStudyRun rebuilds Pipeline.Run from the layers' public functions,
// with a span around each call.
func traceStudyRun(ctx context.Context, rec *recorder, st *aid.CaseStudy, seed int64) (tracedRun, error) {
	var r tracedRun
	var swept int64
	p := aid.New(aid.WithCorpusSize(50, 50), aid.WithSeed(seed),
		aid.WithObserver(aid.ObserverFunc(func(e aid.Event) {
			if cp, ok := e.(aid.CollectProgress); ok {
				swept = cp.SeedsSwept
			}
		})))
	id := rec.begin("collect", st.Name)
	tr, err := p.Collect(ctx, aid.FromStudy(st))
	rec.end(id, int(swept))
	if err != nil {
		return r, err
	}
	r.kept = len(tr.Set.Executions)

	id = rec.begin("extract", st.Name)
	corpus := predicate.Extract(tr.Set, tr.Config)
	rec.end(id, len(corpus.Preds))

	id = rec.begin("rank", st.Name)
	fully := statdebug.FullyDiscriminative(corpus)
	rec.end(id, len(fully))

	id = rec.begin("dag", st.Name)
	dag, _, err := acdag.Build(corpus, fully, acdag.BuildOptions{})
	if err != nil {
		rec.end(id, 0)
		return r, err
	}
	rec.end(id, dag.Len())

	exec := &inject.Executor{
		Prog:       tr.Program,
		Corpus:     corpus,
		Baselines:  successes(tr.Set),
		Seeds:      tr.FailSeeds[:min(len(tr.FailSeeds), replaysPerRound)],
		Cfg:        tr.Config,
		FailureSig: tr.FailureSig,
		MaxSteps:   tr.MaxSteps,
	}
	iv := &timedExecutor{exec: exec, rec: rec}
	id = rec.begin("discover", st.Name)
	res, err := core.Discover(ctx, dag, iv, core.AIDOptions(seed))
	if err != nil {
		rec.end(id, 0)
		return r, err
	}
	rec.end(id, res.Interventions())

	// TAGT over the same candidate pool and executor, as Pipeline.Run
	// runs it.
	var pool []predicate.ID
	for _, n := range dag.Nodes() {
		if n != predicate.FailureID {
			pool = append(pool, n)
		}
	}
	oracle := func(group []predicate.ID) (bool, error) {
		obs, err := iv.Intervene(ctx, group)
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
	id = rec.begin("tagt", st.Name)
	tres, err := grouptest.Adaptive(pool, oracle, seed)
	if err != nil {
		rec.end(id, 0)
		return r, err
	}
	rec.end(id, tres.Tests)

	id = rec.begin("explain", st.Name)
	_ = explain.Build(corpus, res).String()
	rec.end(id, 0)

	r.root, r.rounds, r.tests, r.missed = string(res.RootCause()), res.Interventions(), tres.Tests, exec.Missed
	return r, nil
}

func successes(set *trace.Set) []trace.Execution {
	var out []trace.Execution
	for i := range set.Executions {
		if !set.Executions[i].Failed() {
			out = append(out, set.Executions[i])
		}
	}
	return out
}

// traceStudies runs each op twice, untraced and traced in alternating
// order. The untraced half gives the tracing overhead, the Go runtime
// costs and the reports the traced half must agree with.
func traceStudies(ctx context.Context, cfg config, out *outcome, byName map[string]*aid.CaseStudy, gen *studiesGen) error {
	rec := newRecorder()
	var cost runtimeCost
	var tracedLat, untracedLat []float64
	var kept, missed int
	start := time.Now()
	for opID, deadline := 1, start.Add(cfg.seconds); time.Now().Before(deadline); opID++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		op := gen.next()
		var reps []*aid.Report
		var fails []*failure
		got := make([]tracedRun, len(op))
		untraced := func() {
			before := readMem()
			t0 := time.Now()
			var f []*failure
			reps, f = passStudies(ctx, out, byName, op)
			untracedLat = append(untracedLat, ms(time.Since(t0)))
			cost.add(before, readMem())
			fails = append(fails, f...)
		}
		traced := func() {
			t0 := time.Now()
			id := rec.beginOp(opID)
			for i, it := range op {
				st := byName[it.Study]
				r, err := traceStudyRun(ctx, rec, st, it.Seed)
				if err != nil {
					fails = append(fails, failf(failError, "traced %s: %v", it.Study, err))
					continue
				}
				got[i] = r
				kept += r.kept
				missed += r.missed
				fails = append(fails, checkRoot(it.Study, r.root, st.WantRootPrefix))
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
			rep, r := reps[i], got[i]
			if rep == nil || r.root == "" {
				continue // already counted as failed
			}
			if r.root != rep.RootCause || r.rounds != rep.AIDInterventions || r.tests != rep.TAGTInterventions {
				fails = append(fails, failf(failEquivalence, "%s seed %d: traced (%s, %d rounds, %d tests) != Pipeline.Run (%s, %d, %d)",
					it.Study, it.Seed, r.root, r.rounds, r.tests, rep.RootCause, rep.AIDInterventions, rep.TAGTInterventions))
			}
		}
		out.tally.add(fails...)
	}
	out.elapsed = time.Since(start)

	t := totals(rec.spans)
	layers := newLayers()
	spanLayers(layers, t)
	if swept := t.n["collect"]; swept > 0 {
		layers["collect.yield"] = float64(kept) / float64(swept)
	}
	layers["replay.missed"] = t.perOp(missed)
	cost.report(layers)
	overhead(layers, map[string][]float64{"op": tracedLat}, map[string][]float64{"op": untracedLat})
	out.layers = layers
	if cfg.spans != "" {
		return rec.write(cfg.spans)
	}
	return nil
}
