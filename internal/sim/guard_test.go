package sim

import (
	"errors"
	"slices"
	"testing"
	"time"

	"aid/internal/trace"
)

// panicOp is a test-only operation whose execution panics, standing in
// for engine bugs inside one replay.
type panicOp struct{}

func (panicOp) opName() string { return "panic" }

// batchProgram is a small two-thread racy program: failure-or-success
// depends on the schedule seed.
func batchProgram() *Program {
	p := NewProgram("batch", "Main")
	p.Globals["x"] = 0
	p.AddFunc("Main",
		Spawn{Fn: "Writer", Dst: "t"},
		ReadGlobal{Dst: "v", Var: "x"},
		Arith{Dst: "v", A: V("v"), Op: OpAdd, B: Lit(1)},
		WriteGlobal{Var: "x", Src: V("v")},
		Join{Thread: V("t")},
	)
	p.AddFunc("Writer",
		ReadGlobal{Dst: "w", Var: "x"},
		Arith{Dst: "w", A: V("w"), Op: OpAdd, B: Lit(1)},
		WriteGlobal{Var: "x", Src: V("w")},
	)
	return p
}

// guardPanicProgram always hits the test-only panicking op.
func guardPanicProgram() *Program {
	p := NewProgram("guard-panic", "Main")
	p.AddFunc("Main", panicOp{})
	return p
}

// guardSpinProgram burns well past the wall-budget check interval
// (1024 steps) in a tight loop before finishing cleanly.
func guardSpinProgram() *Program {
	p := NewProgram("guard-spin", "Main")
	p.AddFunc("Main",
		Assign{Dst: "i", Src: Lit(0)},
		While{Cond: Cond{A: V("i"), Op: LT, B: Lit(100000)}, Body: []Op{
			Arith{Dst: "i", A: V("i"), Op: OpAdd, B: Lit(1)},
		}},
	)
	return p
}

// TestRunGuardedRecoversPanic checks a panic inside an observed replay
// surfaces as a *ReplayPanicError instead of crashing the process, and
// that the prepared program stays usable afterwards (the panicked
// machine is abandoned, not pooled).
func TestRunGuardedRecoversPanic(t *testing.T) {
	pp, err := Prepare(guardPanicProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		_, err := pp.Observe(seed, Budget{}, nil)
		var pe *ReplayPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("seed %d: got %T (%v), want *ReplayPanicError", seed, err, err)
		}
		if pe.Seed != seed {
			t.Fatalf("panic error reports seed %d, want %d", pe.Seed, seed)
		}
	}
	// The pool must still serve clean machines for other programs.
	clean, err := Prepare(batchProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Observe(1, Budget{}, nil); err != nil {
		t.Fatalf("clean replay after panics: %v", err)
	}
}

// TestRunGuardedWallBudget checks an observed replay exceeding its
// wall-clock budget aborts with a *BudgetError rather than hanging or
// forging a verdict.
func TestRunGuardedWallBudget(t *testing.T) {
	pp, err := Prepare(guardSpinProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// A 1ns budget is already expired at the first check; the spin
	// program's >100k steps guarantee the checkpoint is reached.
	_, err = pp.Observe(1, Budget{MaxSteps: 1 << 20, WallClock: time.Nanosecond}, nil)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %T (%v), want *BudgetError", err, err)
	}
	if be.Seed != 1 || be.Budget != time.Nanosecond {
		t.Fatalf("budget error reports seed %d budget %v", be.Seed, be.Budget)
	}
	// An ample budget lets the same replay finish normally.
	if _, err := pp.Observe(1, Budget{MaxSteps: 1 << 20, WallClock: time.Minute}, nil); err != nil {
		t.Fatalf("replay under ample budget: %v", err)
	}
}

// sameLogs reports whether a and b hold the same records; a nil and an
// empty slice are the same.
func sameLogs(a, b trace.RunLog) bool {
	return slices.Equal(a.Spans, b.Spans) && slices.Equal(a.Accesses, b.Accesses) &&
		slices.Equal(a.LockIDs, b.LockIDs) && slices.Equal(a.LockEnd, b.LockEnd)
}

// TestRunGuardedZeroBudgetByteIdentical pins the containment wrapper's
// transparency: with no wall budget and no panic, Observe sees exactly
// the verdict and logs RunIf keeps, so the deterministic pipeline can
// route every replay through the guard.
func TestRunGuardedZeroBudgetByteIdentical(t *testing.T) {
	pp, err := Prepare(batchProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		want, wantV := pp.RunIf(seed, 0, nil)
		var got trace.RunLog
		v, err := pp.Observe(seed, Budget{}, func(_ Verdict, l *trace.RunLog) { got = l.Clone() })
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v != wantV || !sameLogs(got, want.Log) {
			t.Fatalf("seed %d: guarded run differs from the kept run", seed)
		}
	}
}
