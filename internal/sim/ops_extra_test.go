package sim

import (
	"testing"

	"aid/internal/trace"
)

func TestReadClock(t *testing.T) {
	p := NewProgram("clock", "Main")
	p.AddFunc("Main",
		ReadClock{Dst: "t0"},
		Sleep{Ticks: Lit(25)},
		ReadClock{Dst: "t1"},
		Arith{Dst: "d", A: V("t1"), Op: OpSub, B: V("t0")},
		Return{Val: V("d")},
	)
	e := mustKeptTrace(p, 1, RunOptions{})
	if e.Failed() {
		t.Fatalf("failed: %s", e.FailureSig)
	}
	if got := e.Call("Main", 0).Return.Int; got < 25 {
		t.Fatalf("clock delta = %d, want >= 25", got)
	}
}

func TestMultiLockInjectionNoDeadlock(t *testing.T) {
	// Two lock injections on overlapping method sets: acquisition is in
	// sorted order, so opposite injection orders cannot deadlock.
	p := NewProgram("multilock", "Main")
	p.Globals["g"] = 0
	body := []Op{
		ReadGlobal{Var: "g", Dst: "x"},
		Arith{Dst: "x", A: V("x"), Op: OpAdd, B: Lit(1)},
		WriteGlobal{Var: "g", Src: V("x")},
	}
	p.AddFunc("A", body...)
	p.AddFunc("B", body...)
	p.AddFunc("Main",
		Spawn{Fn: "A", Dst: "ta"},
		Spawn{Fn: "B", Dst: "tb"},
		Join{Thread: V("ta")},
		Join{Thread: V("tb")},
		ReadGlobal{Var: "g", Dst: "r"},
		Return{Val: V("r")},
	)
	plan := Plan{
		"A": {GlobalLocks: []string{"mu1", "mu2"}},
		"B": {GlobalLocks: []string{"mu2", "mu1"}},
	}
	// Merge normalizes order; construct directly to test the runtime's
	// sorted acquisition as well.
	for seed := int64(0); seed < 60; seed++ {
		e := mustKeptTrace(p, seed, RunOptions{Plan: plan})
		if e.Failed() {
			t.Fatalf("seed %d: %s", seed, e.FailureSig)
		}
		if got := e.Call("Main", 0).Return.Int; got != 2 {
			t.Fatalf("seed %d: counter = %d, want 2 (serialized)", seed, got)
		}
	}
}

func TestMultiWaitInjection(t *testing.T) {
	// A method waits for two independent signals before running.
	p := NewProgram("multiwait", "Main")
	p.Globals["done"] = 0
	p.AddFunc("Setter1", Sleep{Ticks: Lit(10)})
	p.AddFunc("Setter2", Sleep{Ticks: Lit(30)})
	p.AddFunc("Late", WriteGlobal{Var: "done", Src: Lit(1)})
	p.AddFunc("Main",
		Spawn{Fn: "Setter1", Dst: "a"},
		Spawn{Fn: "Setter2", Dst: "b"},
		Spawn{Fn: "Late", Dst: "c"},
		Join{Thread: V("a")},
		Join{Thread: V("b")},
		Join{Thread: V("c")},
	)
	plan := Plan{
		"Setter1": {SignalAfter: []Signal{{Var: "s1", Val: 1}}},
		"Setter2": {SignalAfter: []Signal{{Var: "s2", Val: 1}}},
		"Late": {WaitBefore: []Signal{
			{Var: "s1", Val: 1}, {Var: "s2", Val: 1},
		}},
	}
	for seed := int64(0); seed < 30; seed++ {
		e := mustKeptTrace(p, seed, RunOptions{Plan: plan})
		if e.Failed() {
			t.Fatalf("seed %d: %s", seed, e.FailureSig)
		}
		late := e.Call("Late", 0)
		s2 := e.Call("Setter2", 0)
		// Late's body (its write) must come after both setters end.
		if len(late.Accesses) != 1 || late.Accesses[0].At < s2.End {
			t.Fatalf("seed %d: Late ran before Setter2 finished", seed)
		}
	}
}

func TestNestedTryCatch(t *testing.T) {
	p := NewProgram("nestedtry", "Main")
	p.AddFunc("Main",
		Try{
			Body: []Op{
				Try{
					Body:      []Op{Throw{Kind: "Inner"}},
					CatchKind: "Other",
					Handler:   []Op{Assign{Dst: "wrong", Src: Lit(1)}},
				},
			},
			CatchKind: "Inner",
			Handler:   []Op{Assign{Dst: "caught", Src: Lit(1)}},
		},
		Return{Val: V("caught")},
	)
	e := mustKeptTrace(p, 1, RunOptions{})
	if e.Failed() {
		t.Fatalf("failed: %s", e.FailureSig)
	}
	if e.Call("Main", 0).Return.Int != 1 {
		t.Fatal("outer handler did not catch through inner mismatched try")
	}
}

func TestExceptionInWhileBody(t *testing.T) {
	p := NewProgram("loopthrow", "Main")
	p.AddFunc("Main",
		Assign{Dst: "i", Src: Lit(0)},
		Try{
			Body: []Op{
				While{Cond: Cond{A: V("i"), Op: LT, B: Lit(10)}, Body: []Op{
					Arith{Dst: "i", A: V("i"), Op: OpAdd, B: Lit(1)},
					If{Cond: Cond{A: V("i"), Op: EQ, B: Lit(3)},
						Then: []Op{Throw{Kind: "Mid"}}},
				}},
			},
			CatchKind: "Mid",
			Handler:   []Op{Nop{}},
		},
		Return{Val: V("i")},
	)
	e := mustKeptTrace(p, 1, RunOptions{})
	if e.Failed() {
		t.Fatalf("failed: %s", e.FailureSig)
	}
	if got := e.Call("Main", 0).Return.Int; got != 3 {
		t.Fatalf("loop index = %d, want 3 (thrown at third iteration)", got)
	}
}

func TestArrayResizeShrink(t *testing.T) {
	p := NewProgram("shrink", "Main")
	p.Arrays["a"] = []int64{1, 2, 3, 4}
	p.AddFunc("Main",
		ArrayResize{Arr: "a", Len: Lit(2)},
		ArrayRead{Arr: "a", Index: Lit(1), Dst: "x"},
		ArrayLen{Arr: "a", Dst: "n"},
		Arith{Dst: "out", A: V("x"), Op: OpMul, B: V("n")},
		Return{Val: V("out")},
	)
	e := mustKeptTrace(p, 1, RunOptions{})
	if got := e.Call("Main", 0).Return.Int; got != 4 { // 2 * 2
		t.Fatalf("after shrink = %d, want 4", got)
	}
	// Reading past the shrunken bound throws.
	p2 := NewProgram("shrink2", "Main")
	p2.Arrays["a"] = []int64{1, 2, 3, 4}
	p2.AddFunc("Main",
		ArrayResize{Arr: "a", Len: Lit(2)},
		ArrayRead{Arr: "a", Index: Lit(3), Dst: "x"},
	)
	if e := mustKeptTrace(p2, 1, RunOptions{}); !e.Failed() {
		t.Fatal("read past shrunken array succeeded")
	}
}

func TestJoinInvalidThreadThrows(t *testing.T) {
	p := NewProgram("badjoin", "Main")
	p.AddFunc("Main", Assign{Dst: "t", Src: Lit(99)}, Join{Thread: V("t")})
	e := mustKeptTrace(p, 1, RunOptions{})
	if !e.Failed() || e.FailureSig != UncaughtSig(ExcSync) {
		t.Fatalf("outcome = %v/%s", e.Outcome, e.FailureSig)
	}
}

func TestNegativeSleepAndRandom(t *testing.T) {
	p := NewProgram("neg", "Main")
	p.AddFunc("Main",
		Assign{Dst: "n", Src: Lit(-5)},
		Sleep{Ticks: V("n")},
		Random{Dst: "r", N: V("n")},
		Return{Val: V("r")},
	)
	e := mustKeptTrace(p, 1, RunOptions{})
	if e.Failed() {
		t.Fatalf("negative sleep/random crashed: %s", e.FailureSig)
	}
	if e.Call("Main", 0).Return.Int != 0 {
		t.Fatal("Random with non-positive bound should yield 0")
	}
}

func TestTraceTypesExposed(t *testing.T) {
	// Compile-time sanity that the sim package exposes trace types in
	// its API (spans, seeds) as documented.
	var e trace.Execution = mustKeptTrace(sequentialProgram(), 9, RunOptions{})
	if e.Seed != 9 {
		t.Fatalf("seed = %d", e.Seed)
	}
}
