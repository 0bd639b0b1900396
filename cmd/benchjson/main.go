// Command benchjson regenerates the paper's figures and writes the
// wall-clock plus figure metrics as machine-readable JSON, so the
// perf trajectory of the pipeline can be tracked across commits.
//
// Usage:
//
//	benchjson [-o BENCH_pipeline.json] [-instances 60] [-successes 30] [-failures 30] [-workers 0] [-baseline old.json] [-repeat 3] [-check] [-tolerance 0.15]
//
// With -baseline, the named file's "current" section is embedded as
// "baseline" in the output, giving a self-contained before/after
// record.
//
// With -check (requires -baseline), the freshly measured figures are
// compared against the baseline's: an allocs/op or bytes/op increase
// beyond the tolerance band fails the run (exit 1) — the CI allocation
// gate — and leaves the -o file untouched, so one checked run both
// gates and regenerates the record:
//
//	GOMAXPROCS=1 benchjson -check -baseline <parent's record> -o BENCH_pipeline.json
//
// Wall clock is warn-only: ns/op on shared hosts is scheduling
// noise, while allocation counts are near-deterministic for the same
// workload, especially under GOMAXPROCS=1. Compare like with like:
// the baseline must have been generated at the same scale flags and
// GOMAXPROCS as the checking run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"time"

	"aid"
	"aid/internal/effects"
	"aid/internal/service"
)

// Figure is one benchmarked figure workload: its wall-clock, its
// allocation profile, and the paper metrics it reproduces.
type Figure struct {
	Name    string `json:"name"`
	NsPerOp int64  `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are heap-allocation deltas
	// (runtime.MemStats Mallocs/TotalAlloc) across the whole figure
	// pass, summed over all pool workers.
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// measure runs fn repeat times and folds the passes with bestOf. Every
// pass re-runs the full deterministic workload, so the caller can (and
// does) assert the figure metrics agree across passes.
func measure(repeat int, fn func() error) (Figure, error) {
	passes := make([]Figure, max(repeat, 1))
	for r := range passes {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := fn(); err != nil {
			return Figure{}, err
		}
		passes[r].NsPerOp = time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&after)
		passes[r].AllocsPerOp = int64(after.Mallocs - before.Mallocs)
		passes[r].BytesPerOp = int64(after.TotalAlloc - before.TotalAlloc)
	}
	return bestOf(passes), nil
}

// bestOf folds measurement passes into one record: ns/op from the
// fastest pass (one-shot wall clock on shared hosts is dominated by
// scheduling noise, and the minimum is the standard robust estimator),
// allocs/op and bytes/op from the pass that allocated least. The two
// need not be one pass: a process's second pass over a study also fills
// the simulator's seed-state cache, allocations no other pass makes, and
// on a noisy host that pass can be the fastest.
func bestOf(passes []Figure) Figure {
	best := passes[0]
	for _, p := range passes[1:] {
		best.NsPerOp = min(best.NsPerOp, p.NsPerOp)
		if p.AllocsPerOp < best.AllocsPerOp || p.AllocsPerOp == best.AllocsPerOp && p.BytesPerOp < best.BytesPerOp {
			best.AllocsPerOp, best.BytesPerOp = p.AllocsPerOp, p.BytesPerOp
		}
	}
	return best
}

// checkMetrics enforces the determinism contract across measurement
// passes: identical flags must yield identical figure metrics.
func checkMetrics(name string, prev, cur map[string]float64) {
	if prev != nil && !maps.Equal(prev, cur) {
		fatal(fmt.Errorf("%s: metrics differ between measurement passes (nondeterminism): %v vs %v", name, prev, cur))
	}
}

// Run is one full measurement pass.
type Run struct {
	Generated  string   `json:"generated"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Workers    int      `json:"workers"`
	Note       string   `json:"note,omitempty"`
	Figures    []Figure `json:"figures"`
}

// Doc is the on-disk document: the current run plus an optional
// baseline for before/after comparison.
type Doc struct {
	Baseline *Run `json:"baseline,omitempty"`
	Current  *Run `json:"current"`
}

// Absolute slack under which an allocation delta is never a
// regression: small figures breathe (pool warmup, GC bookkeeping, a
// map rehash) without tripping the relative band, while a real
// regression on the measured pipeline costs thousands of allocations.
const (
	checkAllocSlack int64 = 512
	checkByteSlack  int64 = 64 << 10
)

// checkUngated names figures whose work-per-op is bounded by wall
// clock rather than fixed: the fairness figure floods a tenant for a
// measurement window, so its allocation totals scale with how many
// sessions the host pushes through — a faster host (or a faster
// pipeline) raises them without any per-session regression. Gating
// them would flap; the figure's own fairness bound still fails the
// run, and the per-session pipeline cost is gated by every fixed-work
// figure.
var checkUngated = map[string]bool{
	"Serve/fairness": true,
}

// checkRegressions compares a fresh run's allocation figures against a
// baseline run. For every baseline figure, allocs/op and bytes/op may
// grow by at most tol (relative) or the absolute slack, whichever is
// larger; beyond that is a violation. A baseline figure the fresh run
// no longer measures is a violation too (a silently dropped workload
// would pass every band). New figures pass — they have no baseline.
// Wall clock lands in warnings when it more than doubles, never in
// violations. Figures in checkUngated must still be measured but
// their per-op numbers are informational.
func checkRegressions(base, cur *Run, tol float64) (violations, warnings []string) {
	byName := make(map[string]Figure, len(cur.Figures))
	for _, f := range cur.Figures {
		byName[f.Name] = f
	}
	band := func(v, slack int64) int64 {
		return v + max(int64(tol*float64(v)), slack)
	}
	for _, b := range base.Figures {
		c, ok := byName[b.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: in baseline but not measured by this run", b.Name))
			continue
		}
		if checkUngated[b.Name] {
			continue
		}
		if limit := band(b.AllocsPerOp, checkAllocSlack); c.AllocsPerOp > limit {
			violations = append(violations, fmt.Sprintf("%s: allocs/op %d -> %d exceeds limit %d (baseline + max(%.0f%%, %d))",
				b.Name, b.AllocsPerOp, c.AllocsPerOp, limit, tol*100, checkAllocSlack))
		}
		if limit := band(b.BytesPerOp, checkByteSlack); c.BytesPerOp > limit {
			violations = append(violations, fmt.Sprintf("%s: bytes/op %d -> %d exceeds limit %d (baseline + max(%.0f%%, %d))",
				b.Name, b.BytesPerOp, c.BytesPerOp, limit, tol*100, checkByteSlack))
		}
		if c.NsPerOp > 2*b.NsPerOp {
			warnings = append(warnings, fmt.Sprintf("%s: ns/op %d -> %d (wall clock is warn-only)",
				b.Name, b.NsPerOp, c.NsPerOp))
		}
	}
	return violations, warnings
}

func main() {
	var (
		out       = flag.String("o", "BENCH_pipeline.json", "output file")
		instances = flag.Int("instances", 60, "Fig. 8 instances per MAXt setting")
		successes = flag.Int("successes", 30, "Fig. 7 successes per study")
		failures  = flag.Int("failures", 30, "Fig. 7 failures per study")
		workers   = flag.Int("workers", 0, "execution-pool width (0 = GOMAXPROCS)")
		baseline  = flag.String("baseline", "", "embed this file's current run as the baseline")
		repeat    = flag.Int("repeat", 3, "measurement passes per figure (fastest ns/op and least-allocating pass are recorded; metrics must agree)")
		check     = flag.Bool("check", false, "fail (exit 1) when allocs/op or bytes/op regress past -tolerance vs -baseline; ns is warn-only")
		tolerance = flag.Float64("tolerance", 0.15, "relative allocation growth allowed by -check before failing")
	)
	flag.Parse()
	if *check && *baseline == "" {
		fatal(fmt.Errorf("-check requires -baseline"))
	}

	// Read the baseline up front so a bad path fails before the
	// (minutes-long at paper scale) measurement pass, not after.
	var prevRun *Run
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fatal(err)
		}
		var prev Doc
		if err := json.Unmarshal(raw, &prev); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *baseline, err))
		}
		prevRun = prev.Current
	}

	run := &Run{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		// Record the resolved pool width, not the 0 sentinel, so the
		// perf record says what actually ran.
		Workers: aid.ResolveWorkers(*workers),
	}

	pipeline := aid.New(
		aid.WithCorpusSize(*successes, *failures),
		aid.WithWorkers(*workers),
	)
	for _, s := range aid.CaseStudies() {
		fmt.Fprintf(os.Stderr, "benchjson: Figure7/%s...\n", s.Name)
		name := "Figure7/" + s.Name
		var metrics map[string]float64
		fig, err := measure(*repeat, func() error {
			rep, err := pipeline.Run(context.Background(), aid.FromStudy(s))
			if err != nil {
				return err
			}
			m := map[string]float64{
				"discrim-preds":      float64(rep.Discriminative),
				"causal-path":        float64(rep.CausalPathLen),
				"AID-interventions":  float64(rep.AIDInterventions),
				"TAGT-interventions": float64(rep.TAGTInterventions),
				"TAGT-bound":         float64(rep.TAGTWorstCase),
			}
			checkMetrics(name, metrics, m)
			metrics = m
			return nil
		})
		if err != nil {
			fatal(err)
		}
		fig.Name = name
		fig.Metrics = metrics
		run.Figures = append(run.Figures, fig)
	}

	for _, maxT := range aid.Figure8MaxTs() {
		fmt.Fprintf(os.Stderr, "benchjson: Figure8/MAXt=%d...\n", maxT)
		name := fmt.Sprintf("Figure8/MAXt=%d", maxT)
		var metrics map[string]float64
		fig, err := measure(*repeat, func() error {
			st, err := aid.RunSyntheticSweep(context.Background(), maxT, *instances, 1234,
				aid.SyntheticSweepOptions{Workers: *workers})
			if err != nil {
				return err
			}
			m := map[string]float64{"avg-preds": st.AvgPreds}
			for _, ap := range aid.Approaches() {
				c := st.Cells[ap]
				m[string(ap)+"-avg"] = c.Average
				m[string(ap)+"-worst"] = float64(c.WorstCase)
			}
			checkMetrics(name, metrics, m)
			metrics = m
			return nil
		})
		if err != nil {
			fatal(err)
		}
		fig.Name = name
		fig.Metrics = metrics
		run.Figures = append(run.Figures, fig)
	}

	// Effect-analysis record: the pruning demo workload (a lost-update
	// race surrounded by provably-pure checksum/relay helpers) with the
	// static effect analysis off and on. The paired cells record the
	// intervention-round and predicate-count deltas pruning buys; the
	// wall-clock delta is the NsPerOp difference between them.
	for _, on := range []bool{false, true} {
		state := "off"
		if on {
			state = "on"
		}
		name := "Figure8/effects=" + state
		fmt.Fprintf(os.Stderr, "benchjson: %s...\n", name)
		var metrics map[string]float64
		fig, err := measure(*repeat, func() error {
			var pruned float64
			epipe := aid.New(
				aid.WithCorpusSize(*successes, *failures),
				aid.WithWorkers(*workers),
				aid.WithEffectAnalysis(on),
				aid.WithObserver(aid.ObserverFunc(func(e aid.Event) {
					if ev, ok := e.(aid.EffectsAnalyzed); ok {
						pruned = float64(ev.Pruned)
					}
				})),
			)
			rep, err := epipe.Run(context.Background(), aid.FromProgram(effects.PruningDemo(4, 6)))
			if err != nil {
				return err
			}
			m := map[string]float64{
				"total-preds":       float64(rep.TotalPredicates),
				"preds-pruned":      pruned,
				"AID-interventions": float64(rep.AIDInterventions),
			}
			checkMetrics(name, metrics, m)
			metrics = m
			return nil
		})
		if err != nil {
			fatal(err)
		}
		fig.Name = name
		fig.Metrics = metrics
		run.Figures = append(run.Figures, fig)
	}

	// Corpus-scaling record: rank + AC-DAG build over a 50k-execution ×
	// 2k-predicate synthetic corpus in the columnar store. NsPerOp and
	// the allocation profile are the rank+build phase's; the ingest
	// wall-clock lands in the metrics. (BenchmarkCorpusScaling compares
	// the phase with the row-oriented test oracle at trimmed scale.)
	{
		const scaleExecs, scalePreds = 50000, 2000
		name := fmt.Sprintf("CorpusScaling/%dx%d", scaleExecs, scalePreds)
		fmt.Fprintf(os.Stderr, "benchjson: %s...\n", name)
		var metrics map[string]float64
		var best *aid.CorpusScalingResult
		passes := make([]Figure, max(*repeat, 1)) // mirror measure()'s clamp
		for r := range passes {
			res, err := aid.RunCorpusScaling(scaleExecs, scalePreds, 1)
			if err != nil {
				fatal(err)
			}
			m := map[string]float64{
				"fully-discriminative": float64(res.FullyDiscriminative),
				"dag-nodes":            float64(res.DAGNodes),
			}
			checkMetrics(name, metrics, m)
			metrics = m
			if best == nil || res.ColumnarNs < best.ColumnarNs {
				best = res
			}
			passes[r] = Figure{NsPerOp: res.ColumnarNs, AllocsPerOp: res.ColumnarAllocs, BytesPerOp: res.ColumnarBytes}
		}
		metrics["ingest-ns"] = float64(best.IngestNs)
		fig := bestOf(passes)
		fig.Name, fig.Metrics = name, metrics
		run.Figures = append(run.Figures, fig)
	}

	// Serve fairness record: a light tenant's p95 session latency alone
	// on the daemon versus under a flooding tenant that keeps a budget-4
	// daemon saturated. The session counts are deterministic and go
	// through the determinism check; the latencies are wall-clock and do
	// not, so they are recorded from the best pass (lowest p95 ratio,
	// the gated quantity — a pass can have a low loaded p95 and still a
	// high ratio when its unloaded baseline ran fast). The best pass
	// must stay within the 3x fairness bound, the same gate
	// BenchmarkServeConcurrentSessions enforces per iteration.
	{
		const serveBudget, serveLight = 4, 20
		name := "Serve/fairness"
		fmt.Fprintf(os.Stderr, "benchjson: %s...\n", name)
		passes := *repeat
		if passes < 1 {
			passes = 1 // mirror measure()'s clamp
		}
		var metrics map[string]float64
		var best *service.FairnessResult
		var bestFig Figure
		for r := 0; r < passes; r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			res, err := service.RunFairnessBench(context.Background(), serveBudget, serveLight)
			if err != nil {
				fatal(err)
			}
			ns := time.Since(start).Nanoseconds()
			runtime.ReadMemStats(&after)
			m := map[string]float64{
				"light-sessions": float64(res.LightSessions),
				"light-ok":       float64(res.LightOK),
			}
			checkMetrics(name, metrics, m)
			metrics = m
			if best == nil || res.Ratio < best.Ratio {
				best = res
				bestFig = Figure{
					NsPerOp:     ns,
					AllocsPerOp: int64(after.Mallocs - before.Mallocs),
					BytesPerOp:  int64(after.TotalAlloc - before.TotalAlloc),
				}
			}
		}
		if best.Ratio > 3 {
			fatal(fmt.Errorf("%s: fairness violated: loaded p95 %.2fx unloaded; bound is 3x", name, best.Ratio))
		}
		metrics["unloaded-p95-ns"] = float64(best.UnloadedP95Ns)
		metrics["loaded-p95-ns"] = float64(best.LoadedP95Ns)
		metrics["p95-ratio"] = best.Ratio
		metrics["flood-sessions"] = float64(best.FloodSessions)
		bestFig.Name = name
		bestFig.Metrics = metrics
		run.Figures = append(run.Figures, bestFig)
	}

	// Warm-session record: the daemon's steady-state serve path — a
	// repeat session against a warmed result cache (admission, cached
	// serve, event replay, report detach, terminal bookkeeping), the
	// per-session twin of BenchmarkServeSession. Costs are per session.
	{
		const warmSessions = 100
		name := "Serve/warm-session"
		fmt.Fprintf(os.Stderr, "benchjson: %s...\n", name)
		mgr := service.NewManager(service.Config{SessionBudget: 2, TenantCap: 8, ResultCacheCap: 4})
		spec := service.SessionSpec{Study: "npgsql", Successes: *successes, Failures: *failures}
		session := func() (service.SessionStatus, error) {
			s, err := mgr.Start("bench", spec)
			if err != nil {
				return service.SessionStatus{}, err
			}
			<-s.Done()
			if _, _, err := s.Report(); err != nil {
				return service.SessionStatus{}, err
			}
			return s.Status(), nil
		}
		if _, err := session(); err != nil { // populate the cache
			fatal(err)
		}
		var metrics map[string]float64
		fig, err := measure(*repeat, func() error {
			hits := 0
			for i := 0; i < warmSessions; i++ {
				st, err := session()
				if err != nil {
					return err
				}
				if st.ResultCacheHit {
					hits++
				}
			}
			m := map[string]float64{
				"sessions":          warmSessions,
				"result-cache-hits": float64(hits),
			}
			checkMetrics(name, metrics, m)
			metrics = m
			return nil
		})
		if err != nil {
			fatal(err)
		}
		mgr.Close()
		if metrics["result-cache-hits"] != warmSessions {
			fatal(fmt.Errorf("%s: only %.0f/%d sessions served from the result cache", name, metrics["result-cache-hits"], warmSessions))
		}
		fig.Name = name
		fig.NsPerOp /= warmSessions
		fig.AllocsPerOp /= warmSessions
		fig.BytesPerOp /= warmSessions
		fig.Metrics = metrics
		run.Figures = append(run.Figures, fig)
	}

	if err := finish(*out, &Doc{Baseline: prevRun, Current: run}, *check, *tolerance, *baseline, os.Stderr); err != nil {
		fatal(err)
	}
}

// finish runs the -check gate when asked and writes the record to out
// only once the gate has passed: a run that fails the check leaves out
// as it was, so the committed record is always one that passed.
func finish(out string, doc *Doc, check bool, tol float64, baseline string, log io.Writer) error {
	if check {
		violations, warnings := checkRegressions(doc.Baseline, doc.Current, tol)
		for _, w := range warnings {
			fmt.Fprintln(log, "benchjson: warning:", w)
		}
		for _, v := range violations {
			fmt.Fprintln(log, "benchjson: regression:", v)
		}
		if len(violations) > 0 {
			return fmt.Errorf("%d allocation regression(s) against %s; %s not written", len(violations), baseline, out)
		}
		fmt.Fprintf(log, "benchjson: check passed: %d baseline figures within tolerance\n", len(doc.Baseline.Figures))
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(log, "benchjson: wrote %s (%d figures)\n", out, len(doc.Current.Figures))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
