package predicate

import (
	"fmt"
	"testing"

	"aid/internal/oracle/canon"
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
				Return: trace.Value{Int: int64(c % 10)},
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
		canon.Add(s, exec)
	}
	return s
}

// BenchmarkExtractRaces isolates the race detector on overlap-heavy
// traces. Each iteration builds the corpus index too (key numbering and
// access grouping), since the race pass reads it; interning the set is
// left out.
func BenchmarkExtractRaces(b *testing.B) {
	ls := trace.Intern(benchSet(20, 60))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCorpus()
		for j := range ls.Runs {
			r := &ls.Runs[j]
			c.AddRow(r.ID, r.Failed())
		}
		newCorpusIndex(ls).extractRaces(c)
	}
}

// BenchmarkMonitorsEval measures answering one round of replays, from
// their logs: the per-round cost of the intervention loop.
func BenchmarkMonitorsEval(b *testing.B) {
	set := benchSet(40, 30)
	c := Extract(set, Config{DurationMargin: 4})
	ls := trace.Intern(set)
	ms, err := CompileMonitors(c, ls.Syms, ls.Successes(), Config{DurationMargin: 4})
	if err != nil {
		b.Fatal(err)
	}
	var replays []trace.RunLog
	for i := range ls.Runs {
		if ls.Runs[i].Failed() {
			replays = append(replays, ls.Runs[i].Log)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range replays {
			ms.EvalLog(&replays[j], func([]bool) {})
		}
	}
}
