package aid

import (
	"fmt"
	"runtime"
	"time"

	"aid/internal/acdag"
	"aid/internal/predicate"
	"aid/internal/statdebug"
)

// CorpusScalingResult records one corpus-scaling measurement: a
// synthetic predicate corpus ranked and AC-DAG-built through the
// columnar store. It is the evidence behind the "production-rate
// corpora" claim: scores are maintained counters and the
// counterfactual filter is O(1) per candidate, so rank+build cost
// stops scaling with corpus size. BenchmarkCorpusScaling compares the
// same rank+build with the row-oriented test oracle.
type CorpusScalingResult struct {
	// Executions and Predicates are the corpus dimensions.
	Executions int `json:"executions"`
	Predicates int `json:"predicates"`
	// IngestNs is the wall-clock of streaming the corpus into the
	// columnar store row by row (scores maintained as it lands).
	IngestNs int64 `json:"ingest_ns"`
	// ColumnarNs times rank (Scores + FullyDiscriminative) + AC-DAG
	// Build.
	ColumnarNs int64 `json:"columnar_ns"`
	// ColumnarAllocs and ColumnarBytes are heap-allocation deltas
	// (runtime.MemStats) across the rank+build phase.
	ColumnarAllocs int64 `json:"columnar_allocs"`
	ColumnarBytes  int64 `json:"columnar_bytes"`
	// FullyDiscriminative and DAGNodes sanity-check the workload shape.
	FullyDiscriminative int `json:"fully_discriminative"`
	DAGNodes            int `json:"dag_nodes"`
}

// scalingLCG is a tiny deterministic generator so the workload is
// byte-stable across runs and architectures.
type scalingLCG uint64

func (g *scalingLCG) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g) >> 11
}

// scalingCorpus generates a synthetic corpus of the given dimensions
// — a causal chain of 24 fully-discriminative predicates over the
// failed rows plus noise predicates occurring in ~1.5% of rows, mixed
// durational and instantaneous kinds — streamed into the columnar
// store. It returns the corpus and the wall-clock of the ingest.
func scalingCorpus(execs, preds int, seed int64) (*predicate.Corpus, int64, error) {
	const causal = 24
	if preds < causal+2 || execs < 4 {
		return nil, 0, fmt.Errorf("aid: corpus scaling needs >= %d predicates and >= 4 executions", causal+2)
	}
	table := make([]predicate.Predicate, 0, preds+1)
	table = append(table, predicate.FailurePredicate())
	for i := 0; i < preds; i++ {
		p := predicate.Predicate{
			ID:     predicate.ID(fmt.Sprintf("p%05d", i)),
			Repair: predicate.Intervention{Kind: predicate.IvLockMethods, Safe: true},
		}
		switch i % 3 {
		case 0:
			p.Kind, p.Stamp = predicate.KindWrongReturn, predicate.ByEnd
		case 1:
			p.Kind, p.Stamp = predicate.KindDataRace, predicate.ByStart
		default:
			p.Kind, p.Stamp = predicate.KindTooSlow, predicate.ByEnd // durational
		}
		table = append(table, p)
	}

	col := predicate.NewCorpus()
	for _, p := range table {
		col.AddPred(p)
	}

	// Generate every row's occurrence map and stream it into the
	// columnar store (timed: the production ingest path).
	g := scalingLCG(seed)
	var ingestNs int64
	for r := 0; r < execs; r++ {
		failed := r%2 == 1
		occ := make(map[predicate.ID]predicate.Occurrence)
		if failed {
			occ[predicate.FailureID] = predicate.Occurrence{Start: 100000, End: 100001, Thread: predicate.NoThread}
			// The causal chain occurs in every failed row, stamped in
			// chain order with per-row jitter that never crosses links.
			for k := 0; k < causal; k++ {
				base := predicate.Occurrence{
					Start:  Time(k*10) + Time(g.next()%3),
					Thread: 0,
				}
				base.End = base.Start + 2
				occ[table[1+k].ID] = base
			}
		}
		// Noise predicates occur in ~1.5% of rows regardless of outcome.
		for i := causal; i < preds; i++ {
			if g.next()%67 == 0 {
				start := Time(g.next() % 5000)
				occ[table[1+i].ID] = predicate.Occurrence{
					Start:  start,
					End:    start + Time(1+g.next()%40),
					Thread: predicate.NoThread,
				}
			}
		}
		id := fmt.Sprintf("e%06d", r)
		t0 := time.Now()
		col.AddLog(id, failed, occ)
		ingestNs += time.Since(t0).Nanoseconds()
	}
	return col, ingestNs, nil
}

// RunCorpusScaling generates the synthetic corpus of the given
// dimensions (see scalingCorpus) and times rank+build on it, with the
// allocation profile of that phase.
func RunCorpusScaling(execs, preds int, seed int64) (*CorpusScalingResult, error) {
	col, ingestNs, err := scalingCorpus(execs, preds, seed)
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	statdebug.Scores(col)
	fully := statdebug.FullyDiscriminative(col)
	dag, _, err := acdag.Build(col, fully, acdag.BuildOptions{})
	colNs := time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, fmt.Errorf("aid: corpus scaling: columnar build: %w", err)
	}
	return &CorpusScalingResult{
		Executions:          execs,
		Predicates:          preds,
		IngestNs:            ingestNs,
		ColumnarNs:          colNs,
		ColumnarAllocs:      int64(after.Mallocs - before.Mallocs),
		ColumnarBytes:       int64(after.TotalAlloc - before.TotalAlloc),
		FullyDiscriminative: len(fully),
		DAGNodes:            dag.Len(),
	}, nil
}
