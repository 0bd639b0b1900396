// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§7) plus the analytical artifacts of §6.
//
//	go test -bench=Figure7 .     # Fig. 7: the six case studies
//	go test -bench=Figure8 .     # Fig. 8: the synthetic MAXt sweep
//	go test -bench=Figure6 .     # Fig. 6: bounds on the symmetric AC-DAG
//	go test -bench=Example3 .    # Example 3: search-space comparison
//
// Each benchmark reports the paper's quantities as custom metrics
// (interventions/op, predicates/op, ...), so `-bench` output doubles as
// the reproduction tables; absolute wall-clock numbers measure the
// harness itself.
package aid_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"aid"
	"aid/internal/theory"
)

// benchOpts is a trimmed corpus size so a full Fig. 7 row stays fast
// enough to iterate; cmd/casestudies runs the paper-scale 50+50 corpus.
// The benchmarks drive the public facade, so the bench smoke doubles as
// an end-to-end exercise of the pipeline API.
func benchOpts(extra ...aid.Option) []aid.Option {
	return append([]aid.Option{aid.WithCorpusSize(30, 30), aid.WithReplays(5)}, extra...)
}

// BenchmarkFigure7 regenerates one Fig. 7 row per sub-benchmark:
// #discriminative predicates, causal-path length, AID and TAGT
// interventions.
func BenchmarkFigure7(b *testing.B) {
	for _, s := range aid.CaseStudies() {
		s := s
		b.Run(s.Name, func(b *testing.B) {
			b.ReportAllocs()
			pipeline := aid.New(benchOpts()...)
			var last *aid.Report
			for i := 0; i < b.N; i++ {
				rep, err := pipeline.Run(context.Background(), aid.FromStudy(s))
				if err != nil {
					b.Fatal(err)
				}
				last = rep
			}
			b.ReportMetric(float64(last.Discriminative), "discrim-preds")
			b.ReportMetric(float64(last.CausalPathLen), "causal-path")
			b.ReportMetric(float64(last.AIDInterventions), "AID-interventions")
			b.ReportMetric(float64(last.TAGTInterventions), "TAGT-interventions")
			b.ReportMetric(float64(last.TAGTWorstCase), "TAGT-bound")
		})
	}
}

// BenchmarkFigure8 regenerates the Fig. 8 sweep: per MAXt setting, the
// average and worst-case interventions for each approach. The paper
// uses 500 instances per setting; the benchmark uses 60 to stay fast —
// cmd/synthbench runs the full scale.
func BenchmarkFigure8(b *testing.B) {
	const instances = 60
	for _, maxT := range aid.Figure8MaxTs() {
		maxT := maxT
		b.Run(fmt.Sprintf("MAXt=%d", maxT), func(b *testing.B) {
			b.ReportAllocs()
			var last *aid.SyntheticSetting
			for i := 0; i < b.N; i++ {
				s, err := aid.RunSyntheticSetting(context.Background(), maxT, instances, 1234)
				if err != nil {
					b.Fatal(err)
				}
				last = s
			}
			b.ReportMetric(last.AvgPreds, "avg-preds")
			for _, ap := range aid.Approaches() {
				c := last.Cells[ap]
				b.ReportMetric(c.Average, string(ap)+"-avg")
				b.ReportMetric(float64(c.WorstCase), string(ap)+"-worst")
			}
		})
	}
}

// BenchmarkPoolScaling compares the pipeline at one pool worker versus
// GOMAXPROCS workers on the same case study — the two runs must agree
// on every metric (the pool's determinism contract), differing only in
// wall-clock.
func BenchmarkPoolScaling(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			pipeline := aid.New(benchOpts(aid.WithWorkers(workers))...)
			var last *aid.Report
			for i := 0; i < b.N; i++ {
				rep, err := pipeline.Run(context.Background(), aid.FromStudy(aid.CaseStudyByName("kafka")))
				if err != nil {
					b.Fatal(err)
				}
				last = rep
			}
			b.ReportMetric(float64(last.AIDInterventions), "AID-interventions")
			b.ReportMetric(float64(last.TAGTInterventions), "TAGT-interventions")
		})
	}
}

// BenchmarkFigure6 evaluates the Fig. 6 bounds table on the symmetric
// AC-DAG.
func BenchmarkFigure6(b *testing.B) {
	b.ReportAllocs()
	var rows [2]theory.Fig6Row
	for i := 0; i < b.N; i++ {
		rows = theory.Figure6(3, 4, 5, 4, 2, 2)
	}
	b.ReportMetric(rows[0].SearchSpaceLog2, "CPD-space-log2")
	b.ReportMetric(rows[1].SearchSpaceLog2, "GT-space-log2")
	b.ReportMetric(rows[0].LowerBound, "CPD-lower")
	b.ReportMetric(rows[1].LowerBound, "GT-lower")
	b.ReportMetric(rows[0].UpperBound, "CPD-upper")
	b.ReportMetric(rows[1].UpperBound, "GT-upper")
}

// BenchmarkExample3 computes the Example 3 search-space comparison.
func BenchmarkExample3(b *testing.B) {
	b.ReportAllocs()
	var cpd, gt float64
	for i := 0; i < b.N; i++ {
		cpd, _ = new(floatFromBig).fromBig(theory.SymmetricCPDSpace(1, 2, 3))
		gt, _ = new(floatFromBig).fromBig(theory.SymmetricGTSpace(1, 2, 3))
	}
	b.ReportMetric(cpd, "CPD-space")
	b.ReportMetric(gt, "GT-space")
}

// BenchmarkAblation isolates the contribution of each AID component on
// a fixed synthetic population (the design-choice ablation DESIGN.md
// calls out): branch pruning, predicate pruning, topological ordering.
func BenchmarkAblation(b *testing.B) {
	const maxT, instances = 18, 40
	for _, ap := range aid.Approaches() {
		ap := ap
		b.Run(string(ap), func(b *testing.B) {
			b.ReportAllocs()
			var sum, worst int
			for i := 0; i < b.N; i++ {
				sum, worst = 0, 0
				for k := 0; k < instances; k++ {
					inst, err := aid.GenerateSynthetic(aid.SyntheticParams{
						MaxThreads: maxT, Seed: int64(k) * 31, LateSymptoms: -1,
					})
					if err != nil {
						b.Fatal(err)
					}
					n, err := aid.RunSyntheticInstance(context.Background(), inst, ap, int64(k))
					if err != nil {
						b.Fatal(err)
					}
					sum += n
					if n > worst {
						worst = n
					}
				}
			}
			b.ReportMetric(float64(sum)/instances, "avg-interventions")
			b.ReportMetric(float64(worst), "worst-interventions")
		})
	}
}

// floatFromBig is a tiny helper so Example 3's exact big.Int results can
// surface as benchmark metrics.
type floatFromBig struct{}

func (floatFromBig) fromBig(x interface{ Int64() int64 }) (float64, bool) {
	return float64(x.Int64()), true
}
