package predicate

import (
	"fmt"
	"testing"

	"aid/internal/trace"
)

// benchSet builds a corpus of executions with method spans, accesses
// and mixed outcomes that exercises every extractor.
func benchSet(execs, callsPerExec int) *trace.Set {
	s := &trace.Set{}
	for e := 0; e < execs; e++ {
		exec := trace.Execution{
			ID:   fmt.Sprintf("e%03d", e),
			Seed: int64(e),
		}
		failed := e%3 == 0
		if failed {
			exec.Outcome = trace.Failure
			exec.FailureSig = "crash"
		}
		t := trace.Time(0)
		for c := 0; c < callsPerExec; c++ {
			dur := trace.Time(10)
			if failed && c%4 == 0 {
				dur = 60 // slow in failures
			}
			call := trace.MethodCall{
				Method: fmt.Sprintf("M%02d", c%10),
				Thread: trace.ThreadID(c % 3),
				Start:  t,
				End:    t + dur,
				Return: trace.IntValue(int64(c % 10)),
				Accesses: []trace.Access{
					{Object: trace.ObjectID(fmt.Sprintf("obj%d", c%5)), Kind: trace.Read, At: t + 1},
					{Object: trace.ObjectID(fmt.Sprintf("obj%d", c%5)), Kind: trace.Write, At: t + dur - 1},
				},
			}
			if failed && c == callsPerExec-1 {
				call.Exception = "Boom"
			}
			exec.Calls = append(exec.Calls, call)
			t += dur / 2 // overlapping spans stress the race detector
		}
		s.Add(exec)
	}
	return s
}

// BenchmarkExtract measures full predicate extraction over a mixed
// corpus (the SD phase's dominant cost).
func BenchmarkExtract(b *testing.B) {
	set := benchSet(40, 30)
	cfg := Config{DurationMargin: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := Extract(set, cfg)
		if len(c.Preds) == 0 {
			b.Fatal("no predicates extracted")
		}
	}
}

// BenchmarkExtractRaces isolates the race detector on overlap-heavy
// traces. Each iteration interns the corpus too, since the race pass
// reads the interned ids.
func BenchmarkExtractRaces(b *testing.B) {
	set := benchSet(20, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCorpus()
		for j := range set.Executions {
			e := &set.Executions[j]
			c.AddRow(e.ID, e.Failed())
		}
		newCorpusIndex(set.Executions).extractRaces(c)
	}
}

// splitBenchSet splits benchSet's executions into success baselines and
// failed replays, with the one-shot corpus over all of them.
func splitBenchSet(execs, callsPerExec int) (c *Corpus, baselines, replays []trace.Execution) {
	set := benchSet(execs, callsPerExec)
	for _, e := range set.Executions {
		if e.Failed() {
			replays = append(replays, e)
		} else {
			baselines = append(baselines, e)
		}
	}
	return Extract(set, Config{DurationMargin: 4}), baselines, replays
}

// BenchmarkMonitorsCompile measures compiling the corpus's monitors
// against the baselines: the once-per-executor cost.
func BenchmarkMonitorsCompile(b *testing.B) {
	c, baselines, _ := splitBenchSet(40, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompileMonitors(c, baselines, Config{DurationMargin: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorsEval measures answering one round of replays: the
// per-round cost of the intervention loop.
func BenchmarkMonitorsEval(b *testing.B) {
	c, baselines, replays := splitBenchSet(40, 30)
	ms, err := CompileMonitors(c, baselines, Config{DurationMargin: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range replays {
			ms.Eval(&replays[j])
		}
	}
}
