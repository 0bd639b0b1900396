package sim

import (
	"reflect"
	"testing"

	"aid/internal/trace"
)

// sequentialProgram: main computes locals, writes a global, calls a
// helper that returns 7.
func sequentialProgram() *Program {
	p := NewProgram("seq", "Main")
	p.Globals["g"] = 0
	p.AddFunc("Helper",
		Assign{Dst: "x", Src: Lit(3)},
		Arith{Dst: "x", A: V("x"), Op: OpAdd, B: Lit(4)},
		Return{Val: V("x")},
	)
	p.AddFunc("Main",
		Call{Fn: "Helper", Dst: "r"},
		WriteGlobal{Var: "g", Src: V("r")},
	)
	return p
}

// callsOf returns e's spans of the named method in start order.
func callsOf(e *trace.Execution, method string) []*trace.MethodCall {
	var out []*trace.MethodCall
	for i := range e.Calls {
		if e.Calls[i].Method == method {
			out = append(out, &e.Calls[i])
		}
	}
	return out
}

func TestSequentialRun(t *testing.T) {
	e := mustKeptTrace(sequentialProgram(), 1, RunOptions{})
	if e.Failed() {
		t.Fatalf("sequential run failed: %s", e.FailureSig)
	}
	h := e.Call("Helper", 0)
	if h == nil {
		t.Fatal("no Helper span recorded")
	}
	if h.Return.Void || h.Return.Int != 7 {
		t.Fatalf("Helper returned %v, want 7", h.Return)
	}
	m := e.Call("Main", 0)
	if m == nil {
		t.Fatal("no Main span")
	}
	if m.Start > h.Start || m.End < h.End {
		t.Fatalf("Helper span [%d,%d] not nested in Main [%d,%d]", h.Start, h.End, m.Start, m.End)
	}
	if len(m.Accesses) != 1 || m.Accesses[0].Object != "g" || m.Accesses[0].Kind != trace.Write {
		t.Fatalf("Main accesses = %+v, want one write of g", m.Accesses)
	}
}

func TestDeterminism(t *testing.T) {
	p := racyProgram()
	a := mustKeptTrace(p, 42, RunOptions{})
	b := mustKeptTrace(p, 42, RunOptions{})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	// Different seeds usually differ in span timings.
	c := mustKeptTrace(p, 43, RunOptions{})
	if reflect.DeepEqual(a.Calls, c.Calls) {
		t.Log("seeds 42 and 43 coincided; not fatal but suspicious")
	}
}

func TestArithOps(t *testing.T) {
	p := NewProgram("arith", "Main")
	p.AddFunc("Main",
		Assign{Dst: "a", Src: Lit(10)},
		Arith{Dst: "s", A: V("a"), Op: OpSub, B: Lit(3)},
		Arith{Dst: "m", A: V("s"), Op: OpMul, B: Lit(4)},
		Arith{Dst: "d", A: V("m"), Op: OpDiv, B: Lit(5)},
		Arith{Dst: "r", A: V("m"), Op: OpMod, B: Lit(5)},
		WriteGlobal{Var: "d", Src: V("d")},
		WriteGlobal{Var: "r", Src: V("r")},
		Return{Val: V("d")},
	)
	e := mustKeptTrace(p, 1, RunOptions{})
	if e.Failed() {
		t.Fatalf("failed: %s", e.FailureSig)
	}
	if got := e.Call("Main", 0).Return.Int; got != 5 {
		t.Fatalf("(10-3)*4/5 = %d, want 5", got)
	}
}

func TestDivideByZeroThrows(t *testing.T) {
	p := NewProgram("div0", "Main")
	p.AddFunc("Main", Arith{Dst: "x", A: Lit(1), Op: OpDiv, B: Lit(0)})
	e := mustKeptTrace(p, 1, RunOptions{})
	if !e.Failed() || e.FailureSig != UncaughtSig("DivideByZero") {
		t.Fatalf("outcome = %v/%s, want unhandled DivideByZero", e.Outcome, e.FailureSig)
	}
}

func TestIfElse(t *testing.T) {
	p := NewProgram("if", "Main")
	p.AddFunc("Main",
		Assign{Dst: "x", Src: Lit(5)},
		If{Cond: Cond{A: V("x"), Op: GT, B: Lit(3)},
			Then: []Op{Assign{Dst: "y", Src: Lit(1)}},
			Else: []Op{Assign{Dst: "y", Src: Lit(2)}}},
		If{Cond: Cond{A: V("x"), Op: LT, B: Lit(3)},
			Then: []Op{Assign{Dst: "z", Src: Lit(1)}},
			Else: []Op{Assign{Dst: "z", Src: Lit(2)}}},
		Arith{Dst: "out", A: V("y"), Op: OpMul, B: Lit(10)},
		Arith{Dst: "out", A: V("out"), Op: OpAdd, B: V("z")},
		Return{Val: V("out")},
	)
	e := mustKeptTrace(p, 1, RunOptions{})
	if got := e.Call("Main", 0).Return.Int; got != 12 {
		t.Fatalf("if/else result = %d, want 12", got)
	}
}

func TestWhileLoop(t *testing.T) {
	p := NewProgram("while", "Main")
	p.AddFunc("Main",
		Assign{Dst: "i", Src: Lit(0)},
		Assign{Dst: "sum", Src: Lit(0)},
		While{Cond: Cond{A: V("i"), Op: LT, B: Lit(5)}, Body: []Op{
			Arith{Dst: "sum", A: V("sum"), Op: OpAdd, B: V("i")},
			Arith{Dst: "i", A: V("i"), Op: OpAdd, B: Lit(1)},
		}},
		Return{Val: V("sum")},
	)
	e := mustKeptTrace(p, 1, RunOptions{})
	if got := e.Call("Main", 0).Return.Int; got != 10 {
		t.Fatalf("sum 0..4 = %d, want 10", got)
	}
}

func TestLoopInstancesNumbered(t *testing.T) {
	p := NewProgram("loop-calls", "Main")
	p.AddFunc("Body", ReturnVoid{})
	p.AddFunc("Main",
		Assign{Dst: "i", Src: Lit(0)},
		While{Cond: Cond{A: V("i"), Op: LT, B: Lit(3)}, Body: []Op{
			Call{Fn: "Body"},
			Arith{Dst: "i", A: V("i"), Op: OpAdd, B: Lit(1)},
		}},
	)
	e := mustKeptTrace(p, 1, RunOptions{})
	calls := callsOf(&e, "Body")
	if len(calls) != 3 {
		t.Fatalf("Body called %d times, want 3", len(calls))
	}
	for k, c := range calls {
		if c.Instance != k {
			t.Fatalf("instance %d numbered %d", k, c.Instance)
		}
	}
}

func TestArrays(t *testing.T) {
	p := NewProgram("arrays", "Main")
	p.Arrays["a"] = []int64{10, 20, 30}
	p.AddFunc("Main",
		ArrayRead{Arr: "a", Index: Lit(1), Dst: "x"},
		ArrayWrite{Arr: "a", Index: Lit(2), Src: Lit(99)},
		ArrayRead{Arr: "a", Index: Lit(2), Dst: "y"},
		ArrayLen{Arr: "a", Dst: "n"},
		ArrayResize{Arr: "a", Len: Lit(5)},
		ArrayLen{Arr: "a", Dst: "n2"},
		ArrayRead{Arr: "a", Index: Lit(4), Dst: "z"}, // zero-filled after resize
		Arith{Dst: "out", A: V("x"), Op: OpAdd, B: V("y")},
		Arith{Dst: "out", A: V("out"), Op: OpAdd, B: V("n")},
		Arith{Dst: "out", A: V("out"), Op: OpAdd, B: V("n2")},
		Arith{Dst: "out", A: V("out"), Op: OpAdd, B: V("z")},
		Return{Val: V("out")},
	)
	e := mustKeptTrace(p, 1, RunOptions{})
	if e.Failed() {
		t.Fatalf("failed: %s", e.FailureSig)
	}
	// 20 + 99 + 3 + 5 + 0 = 127
	if got := e.Call("Main", 0).Return.Int; got != 127 {
		t.Fatalf("array program = %d, want 127", got)
	}
}

func TestArrayOutOfRange(t *testing.T) {
	p := NewProgram("oob", "Main")
	p.Arrays["a"] = []int64{1}
	p.AddFunc("Main", ArrayRead{Arr: "a", Index: Lit(5), Dst: "x"})
	e := mustKeptTrace(p, 1, RunOptions{})
	if !e.Failed() || e.FailureSig != UncaughtSig(ExcIndexOutOfRange) {
		t.Fatalf("outcome = %v/%s, want unhandled IndexOutOfRange", e.Outcome, e.FailureSig)
	}
	if e.Call("Main", 0).Exception != ExcIndexOutOfRange {
		t.Fatalf("Main span exception = %q", e.Call("Main", 0).Exception)
	}
}

func TestTryCatch(t *testing.T) {
	p := NewProgram("try", "Main")
	p.AddFunc("Risky", Throw{Kind: "Boom"})
	p.AddFunc("Main",
		Try{
			Body:      []Op{Call{Fn: "Risky"}, Assign{Dst: "unreached", Src: Lit(1)}},
			CatchKind: "Boom",
			Handler:   []Op{Assign{Dst: "caught", Src: Lit(1)}},
		},
		Return{Val: V("caught")},
	)
	e := mustKeptTrace(p, 1, RunOptions{})
	if e.Failed() {
		t.Fatalf("failed: %s", e.FailureSig)
	}
	if got := e.Call("Main", 0).Return.Int; got != 1 {
		t.Fatal("handler did not run")
	}
	if e.Call("Risky", 0).Exception != "Boom" {
		t.Fatal("Risky span should record its exception even when caught upstream")
	}
}

func TestTryCatchWrongKindPropagates(t *testing.T) {
	p := NewProgram("try2", "Main")
	p.AddFunc("Main",
		Try{Body: []Op{Throw{Kind: "A"}}, CatchKind: "B", Handler: []Op{Nop{}}},
	)
	e := mustKeptTrace(p, 1, RunOptions{})
	if !e.Failed() || e.FailureSig != UncaughtSig("A") {
		t.Fatalf("outcome = %v/%s, want unhandled A", e.Outcome, e.FailureSig)
	}
}

func TestTryCatchStar(t *testing.T) {
	p := NewProgram("try3", "Main")
	p.AddFunc("Main",
		Try{Body: []Op{Throw{Kind: "Whatever"}}, CatchKind: "*",
			Handler: []Op{Assign{Dst: "ok", Src: Lit(1)}}},
		Return{Val: V("ok")},
	)
	e := mustKeptTrace(p, 1, RunOptions{})
	if e.Failed() || e.Call("Main", 0).Return.Int != 1 {
		t.Fatal("catch-all handler did not absorb exception")
	}
}

func TestSpawnJoinAndSharing(t *testing.T) {
	p := NewProgram("spawn", "Main")
	p.Globals["g"] = 0
	p.AddFunc("Child",
		ReadGlobal{Var: "g", Dst: "x"},
		Arith{Dst: "x", A: V("x"), Op: OpAdd, B: Lit(1)},
		WriteGlobal{Var: "g", Src: V("x")},
	)
	p.AddFunc("Main",
		Spawn{Fn: "Child", Dst: "t1"},
		Join{Thread: V("t1")},
		ReadGlobal{Var: "g", Dst: "r"},
		Return{Val: V("r")},
	)
	e := mustKeptTrace(p, 7, RunOptions{})
	if e.Failed() {
		t.Fatalf("failed: %s", e.FailureSig)
	}
	if got := e.Call("Main", 0).Return.Int; got != 1 {
		t.Fatalf("g after join = %d, want 1", got)
	}
	child := e.Call("Child", 0)
	if child.Thread == e.Call("Main", 0).Thread {
		t.Fatal("child ran on main thread")
	}
}

func TestLocksMutualExclusion(t *testing.T) {
	// Two threads increment g 50 times each under a lock; the final
	// value must be exactly 100 for every seed.
	p := NewProgram("locks", "Main")
	p.Globals["g"] = 0
	inc := []Op{
		Assign{Dst: "i", Src: Lit(0)},
		While{Cond: Cond{A: V("i"), Op: LT, B: Lit(50)}, Body: []Op{
			Lock{Mu: "m"},
			ReadGlobal{Var: "g", Dst: "x"},
			Arith{Dst: "x", A: V("x"), Op: OpAdd, B: Lit(1)},
			WriteGlobal{Var: "g", Src: V("x")},
			Unlock{Mu: "m"},
			Arith{Dst: "i", A: V("i"), Op: OpAdd, B: Lit(1)},
		}},
	}
	p.AddFunc("Worker", inc...)
	p.AddFunc("Main",
		Spawn{Fn: "Worker", Dst: "a"},
		Spawn{Fn: "Worker", Dst: "b"},
		Join{Thread: V("a")},
		Join{Thread: V("b")},
		ReadGlobal{Var: "g", Dst: "r"},
		Return{Val: V("r")},
	)
	for seed := int64(0); seed < 10; seed++ {
		e := mustKeptTrace(p, seed, RunOptions{})
		if e.Failed() {
			t.Fatalf("seed %d failed: %s", seed, e.FailureSig)
		}
		if got := e.Call("Main", 0).Return.Int; got != 100 {
			t.Fatalf("seed %d: locked counter = %d, want 100", seed, got)
		}
	}
}

// racyProgram: unlocked read-modify-write on g from two threads; lost
// updates are possible under some interleavings.
func racyProgram() *Program {
	p := NewProgram("racy", "Main")
	p.Globals["g"] = 0
	p.AddFunc("Worker",
		ReadGlobal{Var: "g", Dst: "x"},
		Nop{}, Nop{}, Nop{}, // widen the race window
		Arith{Dst: "x", A: V("x"), Op: OpAdd, B: Lit(1)},
		WriteGlobal{Var: "g", Src: V("x")},
	)
	p.AddFunc("Main",
		Spawn{Fn: "Worker", Dst: "a"},
		Spawn{Fn: "Worker", Dst: "b"},
		Join{Thread: V("a")},
		Join{Thread: V("b")},
		ReadGlobal{Var: "g", Dst: "r"},
		Return{Val: V("r")},
	)
	return p
}

func TestRaceManifestsIntermittently(t *testing.T) {
	lost, ok := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		e := mustKeptTrace(racyProgram(), seed, RunOptions{})
		switch e.Call("Main", 0).Return.Int {
		case 1:
			lost++
		case 2:
			ok++
		default:
			t.Fatalf("seed %d: impossible counter value", seed)
		}
	}
	if lost == 0 || ok == 0 {
		t.Fatalf("race should manifest intermittently: lost=%d ok=%d", lost, ok)
	}
}

func TestDeadlockDetection(t *testing.T) {
	p := NewProgram("deadlock", "Main")
	p.AddFunc("A", Lock{Mu: "m1"}, Sleep{Ticks: Lit(5)}, Lock{Mu: "m2"}, Unlock{Mu: "m2"}, Unlock{Mu: "m1"})
	p.AddFunc("B", Lock{Mu: "m2"}, Sleep{Ticks: Lit(5)}, Lock{Mu: "m1"}, Unlock{Mu: "m1"}, Unlock{Mu: "m2"})
	p.AddFunc("Main",
		Spawn{Fn: "A", Dst: "a"},
		Spawn{Fn: "B", Dst: "b"},
		Join{Thread: V("a")},
		Join{Thread: V("b")},
	)
	deadlocked := 0
	for seed := int64(0); seed < 50; seed++ {
		e := mustKeptTrace(p, seed, RunOptions{})
		if e.Failed() && e.FailureSig == SigDeadlock {
			deadlocked++
		}
	}
	if deadlocked == 0 {
		t.Fatal("classic lock-order inversion never deadlocked in 50 seeds")
	}
}

func TestSelfLockDeadlocks(t *testing.T) {
	p := NewProgram("selflock", "Main")
	p.AddFunc("Main", Lock{Mu: "m"}, Lock{Mu: "m"})
	e := mustKeptTrace(p, 1, RunOptions{})
	if !e.Failed() || e.FailureSig != SigDeadlock {
		t.Fatalf("outcome = %v/%s, want deadlock", e.Outcome, e.FailureSig)
	}
}

func TestUnlockWithoutLockThrows(t *testing.T) {
	p := NewProgram("badunlock", "Main")
	p.AddFunc("Main", Unlock{Mu: "m"})
	e := mustKeptTrace(p, 1, RunOptions{})
	if !e.Failed() || e.FailureSig != UncaughtSig(ExcSync) {
		t.Fatalf("outcome = %v/%s, want unhandled SyncError", e.Outcome, e.FailureSig)
	}
}

func TestHangDetection(t *testing.T) {
	p := NewProgram("hang", "Main")
	p.AddFunc("Main",
		Assign{Dst: "i", Src: Lit(0)},
		While{Cond: Cond{A: V("i"), Op: EQ, B: Lit(0)}, Body: []Op{Nop{}}},
	)
	e := mustKeptTrace(p, 1, RunOptions{MaxSteps: 500})
	if !e.Failed() || e.FailureSig != SigHang {
		t.Fatalf("outcome = %v/%s, want hang", e.Outcome, e.FailureSig)
	}
}

func TestWaitUntilBlocksAndWakes(t *testing.T) {
	p := NewProgram("wait", "Main")
	p.Globals["flag"] = 0
	p.AddFunc("Setter", Sleep{Ticks: Lit(20)}, WriteGlobal{Var: "flag", Src: Lit(1)})
	p.AddFunc("Main",
		Spawn{Fn: "Setter", Dst: "t"},
		WaitUntil{Var: "flag", Val: Lit(1)},
		ReadGlobal{Var: "flag", Dst: "r"},
		Return{Val: V("r")},
	)
	e := mustKeptTrace(p, 3, RunOptions{})
	if e.Failed() {
		t.Fatalf("failed: %s", e.FailureSig)
	}
	if got := e.Call("Main", 0).Return.Int; got != 1 {
		t.Fatalf("flag = %d, want 1", got)
	}
}

func TestWaitUntilNeverSatisfiedDeadlocks(t *testing.T) {
	p := NewProgram("waitnever", "Main")
	p.Globals["flag"] = 0
	p.AddFunc("Main", WaitUntil{Var: "flag", Val: Lit(1)})
	e := mustKeptTrace(p, 1, RunOptions{})
	if !e.Failed() || e.FailureSig != SigDeadlock {
		t.Fatalf("outcome = %v/%s, want deadlock", e.Outcome, e.FailureSig)
	}
}

func TestSleepDurationsReflectInSpans(t *testing.T) {
	p := NewProgram("sleep", "Main")
	p.AddFunc("Slow", Sleep{Ticks: Lit(100)})
	p.AddFunc("Main", Call{Fn: "Slow"})
	e := mustKeptTrace(p, 1, RunOptions{})
	if d := e.Call("Slow", 0).Duration(); d < 100 {
		t.Fatalf("Slow duration = %d, want >= 100", d)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	p := NewProgram("random", "Main")
	p.AddFunc("Main",
		Random{Dst: "r", N: Lit(1000)},
		WriteGlobal{Var: "out", Src: V("r")},
		Return{Val: V("r")},
	)
	a := mustKeptTrace(p, 5, RunOptions{})
	b := mustKeptTrace(p, 5, RunOptions{})
	if a.Call("Main", 0).Return.Int != b.Call("Main", 0).Return.Int {
		t.Fatal("Random not deterministic per seed")
	}
	vals := map[int64]bool{}
	for seed := int64(0); seed < 20; seed++ {
		e := mustKeptTrace(p, seed, RunOptions{})
		vals[e.Call("Main", 0).Return.Int] = true
	}
	if len(vals) < 2 {
		t.Fatal("Random produced one value across 20 seeds")
	}
}

func TestFailOp(t *testing.T) {
	p := NewProgram("failop", "Main")
	p.AddFunc("Main", Fail{Sig: "corruption"})
	e := mustKeptTrace(p, 1, RunOptions{})
	if !e.Failed() || e.FailureSig != "corruption" {
		t.Fatalf("outcome = %v/%s, want corruption", e.Outcome, e.FailureSig)
	}
}

func TestValidateErrors(t *testing.T) {
	p := NewProgram("bad", "Main")
	if err := p.Validate(); err == nil {
		t.Fatal("missing entry not rejected")
	}
	p.AddFunc("Main", Call{Fn: "Ghost"})
	if err := p.Validate(); err == nil {
		t.Fatal("undefined call target not rejected")
	}
	p2 := NewProgram("bad2", "Main")
	p2.AddFunc("Main", If{Cond: Cond{A: Lit(1), Op: EQ, B: Lit(1)},
		Then: []Op{Spawn{Fn: "Ghost"}}})
	if err := p2.Validate(); err == nil {
		t.Fatal("undefined spawn target inside If not rejected")
	}
	if _, err := Prepare(p2, nil); err == nil {
		t.Fatal("Prepare should surface validation errors")
	}
}

func TestAccessLocksets(t *testing.T) {
	p := NewProgram("lockset", "Main")
	p.Globals["g"] = 0
	p.AddFunc("Main",
		Lock{Mu: "m"},
		WriteGlobal{Var: "g", Src: Lit(1)},
		Unlock{Mu: "m"},
		WriteGlobal{Var: "g", Src: Lit(2)},
	)
	e := mustKeptTrace(p, 1, RunOptions{})
	acc := e.Call("Main", 0).Accesses
	if len(acc) != 2 {
		t.Fatalf("got %d accesses, want 2", len(acc))
	}
	if !reflect.DeepEqual(acc[0].Locks, []string{"m"}) {
		t.Fatalf("first access lockset = %v, want [m]", acc[0].Locks)
	}
	if acc[1].Locks != nil {
		t.Fatalf("second access lockset = %v, want none", acc[1].Locks)
	}
}
