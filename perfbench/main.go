// Command perfbench is the repository's benchmark. It runs one workload
// for a given seed and prints every metric with its unit and sample
// count; its last line of output is one JSON object:
//
//	{"correct": true, "attempted": 214, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it and the aid binary from the
// checkout first:
//
//	bash perfbench/run.sh --workload studies --seed 1 --seconds 36 --trace 0
//
// The untraced run (--trace 0) reports the end-to-end metrics; the
// traced run (--trace 1) reports per-layer metrics from spans recorded
// around each layer's public functions. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is what every workload needs from the command line.
type config struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// aidBin is the built `aid` binary (serve).
	aidBin string
	// spans is the file the traced run writes its spans to.
	spans string
	// probe times the host-speed probe (see probe.go).
	probe *prober
}

// opSample is one op's latency and when the op started.
type opSample struct {
	at time.Time
	ms float64
}

// outcome is what a workload measured.
type outcome struct {
	tally     tally
	latencies []opSample
	// start and end bound the timed phase.
	start, end time.Time
	// work counts the units throughput is stated in that passed their
	// checks: debugging runs, caller ops, or synthetic instances.
	work    int
	elapsed time.Duration
	// rounds sums AID rounds over roundRuns debugging runs, sessions or
	// instances.
	rounds, roundRuns int
	setups            []opSample // one per set-up
	// rss is the resident set size of the process that runs the
	// program, sampled after each timed op, and peakRSS its VmHWM (MB).
	rss         []float64
	peakRSS     float64
	steal       float64
	daemonProcs int
	// layers holds the traced run's per-layer metrics.
	layers map[string]float64
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(context.Context, config) (*outcome, error){
	"studies":   runStudies,
	"serve":     runServe,
	"synthetic": runSynthetic,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: studies, serve or synthetic")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 36, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	aidBin := fs.String("aid", "", "path to a built aid binary (serve)")
	spans := fs.String("spans", "", "directory the traced run writes its spans to (empty: not written)")
	root := fs.String("root", ".", "root of the checkout, for the source digest")
	probe := fs.Bool("probe", false, "serve host-speed probes on stdin/stdout (the benchmark's helper process)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probe {
		if err := serveProbes(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench: probe helper:", err)
			return 1
		}
		return 0
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload studies|serve|synthetic, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traceFlag == 1,
		aidBin:  *aidBin,
	}
	if *spans != "" {
		cfg.spans = fmt.Sprintf("%s/%s-seed%d.jsonl", *spans, *workload, *seed)
	}
	if runtime.GOMAXPROCS(0) != 1 {
		// The program is measured at GOMAXPROCS=1: on a small shared
		// host a second P adds steal noise and no speed.
		runtime.GOMAXPROCS(1)
	}

	// A signal ends the run early; the workload then stops its daemon
	// and returns an error rather than a result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env := newEnvRecord(*workload, *seed, cfg.traced, *root)
	pr, err := startProber()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg.probe = pr
	out, err := runner(ctx, cfg)
	if cerr := pr.close(); err == nil && cerr != nil {
		err = fmt.Errorf("probe helper: %w", cerr)
	}
	switch {
	case err != nil:
	case ctx.Err() != nil:
		err = errors.New("interrupted")
	case pr.err != nil:
		err = pr.err
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	env.StealShare = out.steal
	env.DaemonGOMAXPROCS = out.daemonProcs
	env.GOMAXPROCS = runtime.GOMAXPROCS(0)
	if !cfg.traced {
		env.ProbeMs, env.HostSpeed = pr.between(out.start, out.end)
	}
	printResult(stdout, env, out, pr, cfg.traced)
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// row is one metric with the sample count behind it, for the table.
type row struct {
	name    string
	m       metric
	samples string
}

// scaled takes each sample to the reference host speed (see probe.go)
// and returns the raw samples beside them.
func scaled(pr *prober, samples []opSample) (scaled, raw []float64) {
	for _, o := range samples {
		raw = append(raw, o.ms)
		scaled = append(scaled, o.ms*pr.scale(o.at))
	}
	return scaled, raw
}

// endToEnd states the times at the reference host speed, with the raw
// figures beside them.
func endToEnd(out *outcome, pr *prober) []row {
	sLat, rLat := scaled(pr, out.latencies)
	lat, rawLat := summarize(sLat), summarize(rLat)
	sSetup, rSetup := scaled(pr, out.setups)
	rss := summarize(out.rss)
	ops := fmt.Sprintf("%d ops", lat.n())
	rawThroughput := float64(out.work) / out.elapsed.Seconds()
	_, speed := pr.between(out.start, out.end)
	return []row{
		{"latency_p50_ms", metric{lat.percentile(50), "ms"}, fmt.Sprintf("%s; raw %.3f", ops, rawLat.percentile(50))},
		{"latency_p95_ms", metric{lat.percentile(95), "ms"},
			fmt.Sprintf("%s, %d beyond p95; raw %.3f", ops, lat.beyond(95), rawLat.percentile(95))},
		{"throughput_per_s", metric{rawThroughput / speed, "1/s"},
			fmt.Sprintf("%d units in %.3f s; raw %.3f", out.work, out.elapsed.Seconds(), rawThroughput)},
		{"interventions_mean", metric{float64(out.rounds) / float64(max(out.roundRuns, 1)), "count"},
			fmt.Sprintf("%d runs", out.roundRuns)},
		{"success_rate", metric{1 - out.tally.errorRate(), "ratio"},
			fmt.Sprintf("%d of %d ops failed", out.tally.failed, out.tally.attempted)},
		{"peak_rss_mb", metric{rss.percentile(95), "MB"},
			fmt.Sprintf("p95 of %d samples, 1 process; VmHWM %.1f", rss.n(), out.peakRSS)},
		{"setup_s", metric{median(sSetup) / 1000, "s"},
			fmt.Sprintf("median of %d set-ups; raw ms %.1f", len(sSetup), rSetup)},
	}
}

func printResult(w io.Writer, env envRecord, out *outcome, pr *prober, traced bool) {
	var rows []row
	if traced {
		names := make([]string, 0, len(out.layers))
		for name := range out.layers {
			names = append(names, name)
		}
		sort.Strings(names)
		ops := fmt.Sprintf("%d ops", out.tally.attempted)
		for _, name := range names {
			rows = append(rows, row{name, metric{out.layers[name], layerUnits[name]}, ops})
		}
	} else {
		rows = endToEnd(out, pr)
	}
	res := result{
		Correct:   out.tally.failed == 0 && out.tally.attempted > 0,
		Attempted: out.tally.attempted,
		Failed:    out.tally.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(w, "%-22s %16s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %16.4f %-6s %s\n", r.name, r.m.Value, r.m.Unit, r.samples)
		res.Metrics[r.name] = r.m
	}
	for k, n := range out.tally.byKind {
		if n > 0 {
			fmt.Fprintf(w, "failed check %-18s %d\n", failKind(k), n)
		}
	}
	for _, e := range out.tally.examples {
		fmt.Fprintf(w, "  e.g. %s\n", e)
	}
	envLine, _ := json.Marshal(map[string]envRecord{"env": env})
	fmt.Fprintf(w, "%s\n", envLine)
	last, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", last)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// memSnap is the Go runtime's allocation and GC-pause totals.
type memSnap struct {
	mallocs, bytes, pauseNs uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{mallocs: m.Mallocs, bytes: m.TotalAlloc, pauseNs: m.PauseTotalNs}
}

// runtimeCost accumulates the runtime totals of the untraced ops of a
// traced run.
type runtimeCost struct {
	memSnap
	ops int
}

func (c *runtimeCost) add(before, after memSnap) {
	c.mallocs += after.mallocs - before.mallocs
	c.bytes += after.bytes - before.bytes
	c.pauseNs += after.pauseNs - before.pauseNs
	c.ops++
}

func (c *runtimeCost) report(layers map[string]float64) {
	n := float64(max(c.ops, 1))
	layers["allocs_per_op"] = float64(c.mallocs) / n
	layers["bytes_per_op"] = float64(c.bytes) / n
	layers["gc.pause_ms_per_op"] = float64(c.pauseNs) / 1e6 / n
}

// singleCaller runs op back to back until the timed phase ends, probing
// the host between ops and sampling this process's resident set size
// after each; the time spent on probes is not the program's and is left
// out of the elapsed time.
func singleCaller(ctx context.Context, cfg config, out *outcome, op func()) error {
	spent := cfg.probe.timeSpent()
	out.start = time.Now()
	for deadline := out.start.Add(cfg.seconds); time.Now().Before(deadline); {
		if err := ctx.Err(); err != nil {
			return err
		}
		cfg.probe.due()
		op()
		rss, err := rssMB("self")
		if err != nil {
			return err
		}
		out.rss = append(out.rss, rss)
	}
	out.end = time.Now()
	out.elapsed = out.end.Sub(out.start) - (cfg.probe.timeSpent() - spent)
	cfg.probe.probe()
	return nil
}
