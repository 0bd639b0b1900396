package sim

import "testing"

// BenchmarkRunRacy measures one simulated execution of the racy
// two-thread program (the simulator's hot path) on the compiled engine.
func BenchmarkRunRacy(b *testing.B) {
	p := racyProgram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := MustRun(p, int64(i), RunOptions{})
		if len(e.Calls) == 0 {
			b.Fatal("no spans recorded")
		}
	}
}

// BenchmarkRunRacyInterpreted is the tree-walking oracle on the same
// workload: the before/after record of the compiled replay engine.
func BenchmarkRunRacyInterpreted(b *testing.B) {
	p := racyProgram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := runInterpreted(p, int64(i), RunOptions{})
		if err != nil || len(e.Calls) == 0 {
			b.Fatal("no spans recorded")
		}
	}
}

// BenchmarkRunInjected measures execution under a fault-injection plan,
// spliced per call (Run compiles the plan each invocation).
func BenchmarkRunInjected(b *testing.B) {
	p := racyProgram()
	plan := Plan{"Worker": {GlobalLocks: []string{"inj"}, DelayStart: 3}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := MustRun(p, int64(i), RunOptions{Plan: plan})
		if e.Failed() {
			b.Fatal("injected run failed")
		}
	}
}

// BenchmarkRunInjectedPrepared amortizes the plan splicing over the
// whole sweep, as inject.Executor.InterveneBatch does.
func BenchmarkRunInjectedPrepared(b *testing.B) {
	p := racyProgram()
	plan := Plan{"Worker": {GlobalLocks: []string{"inj"}, DelayStart: 3}}
	pp, err := Prepare(p, plan)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := pp.Run(int64(i), 0)
		if e.Failed() {
			b.Fatal("injected run failed")
		}
	}
}

// BenchmarkRunInjectedInterpreted is the interpreter on the injected
// workload (per-call op-slice rebuilding, map-keyed state).
func BenchmarkRunInjectedInterpreted(b *testing.B) {
	p := racyProgram()
	plan := Plan{"Worker": {GlobalLocks: []string{"inj"}, DelayStart: 3}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := runInterpreted(p, int64(i), RunOptions{Plan: plan})
		if err != nil || e.Failed() {
			b.Fatal("injected run failed")
		}
	}
}

func schedulerProgram() *Program {
	p := NewProgram("loop", "Main")
	p.AddFunc("Main",
		Assign{Dst: "i", Src: Lit(0)},
		While{Cond: Cond{A: V("i"), Op: LT, B: Lit(1000)}, Body: []Op{
			Arith{Dst: "i", A: V("i"), Op: OpAdd, B: Lit(1)},
		}},
	)
	return p
}

// BenchmarkScheduler measures raw scheduler throughput on a loop-heavy
// single-thread program (steps per op).
func BenchmarkScheduler(b *testing.B) {
	p := schedulerProgram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MustRun(p, 1, RunOptions{})
	}
}

// BenchmarkSchedulerInterpreted is the same loop on the oracle engine.
func BenchmarkSchedulerInterpreted(b *testing.B) {
	p := schedulerProgram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runInterpreted(p, 1, RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
