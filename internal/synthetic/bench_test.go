package synthetic

import (
	"context"
	"testing"
)

// BenchmarkGenerate measures world generation at the paper's largest
// MAXt setting.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inst, err := Generate(Params{MaxThreads: 42, Seed: int64(i), LateSymptoms: -1})
		if err != nil {
			b.Fatal(err)
		}
		if inst.N == 0 {
			b.Fatal("empty instance")
		}
	}
}

// BenchmarkAIDOnWorld measures one full AID discovery on a mid-size
// synthetic world, reporting the intervention count.
func BenchmarkAIDOnWorld(b *testing.B) {
	inst, err := Generate(Params{MaxThreads: 18, Seed: 12, LateSymptoms: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n, err = RunInstance(context.Background(), inst, AID, int64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "interventions")
}

// BenchmarkTAGTOnWorld is the baseline counterpart of
// BenchmarkAIDOnWorld.
func BenchmarkTAGTOnWorld(b *testing.B) {
	inst, err := Generate(Params{MaxThreads: 18, Seed: 12, LateSymptoms: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n, err = RunInstance(context.Background(), inst, TAGT, int64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "interventions")
}
