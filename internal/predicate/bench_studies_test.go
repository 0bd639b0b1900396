package predicate_test

import (
	"context"
	"testing"

	"aid/internal/casestudy"
	"aid/internal/predicate"
	"aid/internal/trace"
)

// studyLogs collects each case study's 50+50 corpus in log form, as
// Pipeline.Run does.
func studyLogs(b *testing.B) map[*casestudy.Study]*trace.LogSet {
	b.Helper()
	out := map[*casestudy.Study]*trace.LogSet{}
	for _, s := range casestudy.All() {
		logs, _, err := casestudy.Collect(context.Background(), s,
			casestudy.CollectConfig{Successes: 50, Failures: 50, SeedCap: 4000, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		out[s] = logs
	}
	return out
}

// BenchmarkExtract measures full predicate extraction: over a synthetic
// Set (interning plus the engine: the path of a trace file or an
// uploaded corpus), and over each case study's collected logs (the
// engine alone: Pipeline.Run's path).
func BenchmarkExtract(b *testing.B) {
	b.Run("set", func(b *testing.B) {
		set := predicate.BenchSet(40, 30)
		cfg := predicate.Config{DurationMargin: 4}
		b.ReportAllocs()
		for b.Loop() {
			if c := predicate.Extract(set, cfg); len(c.Preds) == 0 {
				b.Fatal("no predicates extracted")
			}
		}
	})
	logs := studyLogs(b)
	for _, s := range casestudy.All() {
		b.Run(s.Name, func(b *testing.B) {
			ls, cfg := logs[s], s.Config()
			b.ReportAllocs()
			for b.Loop() {
				predicate.ExtractLogs(ls, cfg)
			}
		})
	}
}

// BenchmarkMonitorsCompile measures compiling a corpus's monitors
// against its success baselines, the once-per-executor cost: over a
// synthetic Set's interned logs, and over each case study's collected
// logs against its program's symbols.
func BenchmarkMonitorsCompile(b *testing.B) {
	b.Run("set", func(b *testing.B) {
		cfg := predicate.Config{DurationMargin: 4}
		ls := trace.Intern(predicate.BenchSet(40, 30))
		c := predicate.ExtractLogs(ls, cfg)
		base := ls.Successes()
		b.ReportAllocs()
		for b.Loop() {
			if _, err := predicate.CompileMonitors(c, ls.Syms, base, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	logs := studyLogs(b)
	for _, s := range casestudy.All() {
		b.Run(s.Name, func(b *testing.B) {
			ls, cfg := logs[s], s.Config()
			c := predicate.ExtractLogs(ls, cfg)
			syms, err := s.Program.Symbols()
			if err != nil {
				b.Fatal(err)
			}
			base := ls.Successes()
			b.ReportAllocs()
			for b.Loop() {
				if _, err := predicate.CompileMonitors(c, syms, base, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
