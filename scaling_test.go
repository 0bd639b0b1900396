package aid

import (
	"testing"
	"time"

	"aid/internal/acdag"
	"aid/internal/oracle/roworacle"
	"aid/internal/statdebug"
)

// BenchmarkCorpusScaling exercises the columnar corpus at a trimmed
// scale (CI smoke): rank + AC-DAG build through the columnar store vs
// the row-oriented test oracle (internal/oracle/roworacle) on one
// synthetic corpus, with both paths' outputs checked equal. The
// benchmark fails if the columnar path is less than 5x faster.
// cmd/benchjson records the columnar side at 50k×2k in
// BENCH_pipeline.json.
func BenchmarkCorpusScaling(b *testing.B) {
	b.ReportAllocs()
	var colNs, rowNs int64
	var fullyCount int
	for i := 0; i < b.N; i++ {
		col, _, err := scalingCorpus(4000, 400, 1)
		if err != nil {
			b.Fatal(err)
		}
		row := roworacle.FromColumnar(col)

		t0 := time.Now()
		colScores := statdebug.Scores(col)
		colFully := statdebug.FullyDiscriminative(col)
		colDAG, _, err := acdag.Build(col, colFully, acdag.BuildOptions{})
		colNs = time.Since(t0).Nanoseconds()
		if err != nil {
			b.Fatalf("columnar build: %v", err)
		}

		t0 = time.Now()
		rowScores := roworacle.Scores(row)
		rowFully := roworacle.FullyDiscriminative(row)
		rowDAG, _, err := roworacle.Build(row, rowFully, acdag.BuildOptions{})
		rowNs = time.Since(t0).Nanoseconds()
		if err != nil {
			b.Fatalf("row build: %v", err)
		}

		// The columnar refactor's contract: same answers from both
		// layouts.
		if len(colScores) != len(rowScores) {
			b.Fatalf("score count diverges (%d vs %d)", len(colScores), len(rowScores))
		}
		for i := range colScores {
			if colScores[i] != rowScores[i] {
				b.Fatalf("score %d diverges (%+v vs %+v)", i, colScores[i], rowScores[i])
			}
		}
		if len(colFully) != len(rowFully) {
			b.Fatal("fully-discriminative sets diverge")
		}
		for i := range colFully {
			if colFully[i] != rowFully[i] {
				b.Fatalf("fully-discriminative sets diverge at %d", i)
			}
		}
		if colDAG.Len() != rowDAG.Len() || len(colDAG.ReductionEdges()) != len(rowDAG.ReductionEdges()) {
			b.Fatalf("DAGs diverge (%d/%d nodes)", colDAG.Len(), rowDAG.Len())
		}
		fullyCount = len(colFully)
	}
	speedup := float64(rowNs) / float64(max(colNs, 1))
	b.ReportMetric(speedup, "rank+build-speedup")
	b.ReportMetric(float64(colNs), "columnar-ns")
	b.ReportMetric(float64(rowNs), "row-ns")
	b.ReportMetric(float64(fullyCount), "fully-discriminative")
	if speedup < 5 {
		b.Fatalf("columnar rank+build speedup %.1fx, want >= 5x", speedup)
	}
}
