package main

// layerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer its workload bypasses reads 0. Times and
// counts are per op unless the name says otherwise; the serve session
// metrics are per traced session.
var layerUnits = map[string]string{
	// casestudy + sim collection
	"collect.ms":          "ms",
	"collect.seeds_swept": "count",
	"collect.yield":       "ratio", // executions kept ÷ seeds swept
	// predicate
	"extract.ms":    "ms",
	"extract.preds": "count",
	// statdebug, acdag
	"rank.ms":   "ms",
	"dag.ms":    "ms",
	"dag.nodes": "count",
	// core
	"discover.ms":      "ms",
	"discover.self_ms": "ms", // excluding intervener time
	"discover.rounds":  "count",
	"discover.batches": "count", // intervener calls made by discovery
	// inject: simulate, trace assembly and re-extraction
	"replay.ms":         "ms",
	"replay.runs":       "count",
	"replay.ms_per_run": "ms",
	"replay.missed":     "count",
	// grouptest (TAGT)
	"tagt.ms":          "ms",
	"tagt.self_ms":     "ms",
	"tagt.tests":       "count",
	"tagt.replay_runs": "count",
	// explain
	"explain.ms": "ms",
	// service, seen from the client and the session status stamps
	"admission.wait_ms":   "ms",
	"session.run_ms":      "ms",
	"client.overhead_ms":  "ms",
	"memo.hit_ratio":      "ratio",
	"rejected":            "count",
	"ingest.ms":           "ms",
	"ingest.mb_per_s":     "MB/s",
	"session.collect_ms":  "ms",
	"session.extract_ms":  "ms",
	"session.rank_dag_ms": "ms",
	"session.discover_ms": "ms",
	"session.tail_ms":     "ms",
	// synthetic
	"generate.ms":         "ms",
	"world.interventions": "count",
	// Go runtime, over the untraced ops of the traced run
	"allocs_per_op":      "count",
	"bytes_per_op":       "B",
	"gc.pause_ms_per_op": "ms",
	// the part of an op no layer span covers, and what tracing costs
	"other.ms":             "ms",
	"trace.overhead_ms":    "ms",
	"trace.overhead_share": "ratio",
}

func newLayers() map[string]float64 {
	m := make(map[string]float64, len(layerUnits))
	for name := range layerUnits {
		m[name] = 0
	}
	return m
}

// spanLayers fills the metrics every in-process traced run derives from
// its spans the same way.
func spanLayers(layers map[string]float64, t layerTotals) {
	for _, name := range []string{"collect", "extract", "rank", "dag", "discover", "replay", "tagt", "explain", "generate"} {
		layers[name+".ms"] = t.msPerOp(t.dur[name])
	}
	layers["discover.self_ms"] = t.msPerOp(t.self["discover"])
	layers["tagt.self_ms"] = t.msPerOp(t.self["tagt"])
	layers["other.ms"] = t.msPerOp(t.self["op"])
	layers["discover.batches"] = t.perOp(t.underCount["discover"]["replay"] + t.leafN["discover"])
	layers["replay.runs"] = t.perOp(t.n["replay"])
	if t.n["replay"] > 0 {
		layers["replay.ms_per_run"] = float64(t.dur["replay"]) / 1e6 / float64(t.n["replay"])
	}
	layers["tagt.replay_runs"] = t.perOp(t.underN["tagt"]["replay"])
	layers["world.interventions"] = t.perOp(t.leafN["discover"] + t.leafN["tagt"])
	// Spans carry their layer's work count.
	layers["collect.seeds_swept"] = t.perOp(t.n["collect"])
	layers["extract.preds"] = t.perOp(t.n["extract"])
	layers["dag.nodes"] = t.perOp(t.n["dag"])
	layers["discover.rounds"] = t.perOp(t.n["discover"])
	layers["tagt.tests"] = t.perOp(t.n["tagt"])
}

// overhead reports the traced op latency minus the untraced one: the
// difference of the two medians within each op class, weighted by the
// class's traced ops, so a class mix that differs by chance between the
// traced and untraced halves does not read as overhead.
func overhead(layers map[string]float64, traced, untraced map[string][]float64) {
	var diff, base float64
	var weight int
	for class, t := range traced {
		u := untraced[class]
		if len(t) == 0 || len(u) == 0 {
			continue
		}
		mt, mu := summarize(t).percentile(50), summarize(u).percentile(50)
		diff += float64(len(t)) * (mt - mu)
		base += float64(len(t)) * mu
		weight += len(t)
	}
	if weight == 0 {
		return
	}
	layers["trace.overhead_ms"] = diff / float64(weight)
	layers["trace.overhead_share"] = diff / base
}
