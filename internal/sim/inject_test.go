package sim

import (
	"reflect"
	"testing"

	"aid/internal/trace"
)

func TestInjectGlobalLockRepairsRace(t *testing.T) {
	// With a shared injector lock on Worker, both increments serialize
	// and the counter is always 2 for every seed.
	plan := Plan{"Worker": {GlobalLocks: []string{"inj"}}}
	for seed := int64(0); seed < 100; seed++ {
		e := MustRun(racyProgram(), seed, RunOptions{Plan: plan})
		if e.Failed() {
			t.Fatalf("seed %d failed: %s", seed, e.FailureSig)
		}
		if got := e.Call("Main", 0).Return.Int; got != 2 {
			t.Fatalf("seed %d: counter = %d under lock injection, want 2", seed, got)
		}
		for _, c := range e.CallsOf("Worker") {
			if !c.Injected {
				t.Fatal("Worker span not marked Injected")
			}
		}
	}
}

func TestInjectGlobalLockSerializesAccesses(t *testing.T) {
	// The injected lock sits inside the method (as in the paper's
	// "put locks around the code segments that access X"), so the
	// spans may still overlap while one waits — but every access must
	// hold the injector lock and the two critical sections must not
	// interleave.
	plan := Plan{"Worker": {GlobalLocks: []string{"inj"}}}
	for seed := int64(0); seed < 50; seed++ {
		e := MustRun(racyProgram(), seed, RunOptions{Plan: plan})
		ws := e.CallsOf("Worker")
		if len(ws) != 2 {
			t.Fatalf("want 2 Worker spans, got %d", len(ws))
		}
		for _, w := range ws {
			for _, a := range w.Accesses {
				held := false
				for _, l := range a.Locks {
					if l == "inj" {
						held = true
					}
				}
				if !held {
					t.Fatalf("seed %d: access %+v without injector lock", seed, a)
				}
			}
		}
		a, b := ws[0], ws[1]
		if len(a.Accesses) == 0 || len(b.Accesses) == 0 {
			t.Fatalf("seed %d: missing accesses", seed)
		}
		aEnd := a.Accesses[len(a.Accesses)-1].At
		bStart := b.Accesses[0].At
		bEnd := b.Accesses[len(b.Accesses)-1].At
		aStart := a.Accesses[0].At
		if !(aEnd < bStart || bEnd < aStart) {
			t.Fatalf("seed %d: critical sections interleave: a=[%d,%d] b=[%d,%d]",
				seed, aStart, aEnd, bStart, bEnd)
		}
	}
}

func TestInjectDelayStart(t *testing.T) {
	p := NewProgram("delay", "Main")
	p.AddFunc("Fast", ReturnVoid{})
	p.AddFunc("Main", Call{Fn: "Fast"})
	base := MustRun(p, 1, RunOptions{})
	injected := MustRun(p, 1, RunOptions{Plan: Plan{"Fast": {DelayStart: 50}}})
	if injected.Call("Fast", 0).Duration() < base.Call("Fast", 0).Duration()+50 {
		t.Fatalf("DelayStart did not lengthen span: base=%d injected=%d",
			base.Call("Fast", 0).Duration(), injected.Call("Fast", 0).Duration())
	}
}

func TestInjectDelayReturn(t *testing.T) {
	p := NewProgram("delayret", "Main")
	p.AddFunc("Fast", Assign{Dst: "x", Src: Lit(1)}, Return{Val: V("x")})
	p.AddFunc("Main", Call{Fn: "Fast", Dst: "r"}, Return{Val: V("r")})
	e := MustRun(p, 1, RunOptions{Plan: Plan{"Fast": {DelayReturn: 80}}})
	if e.Failed() {
		t.Fatalf("failed: %s", e.FailureSig)
	}
	if d := e.Call("Fast", 0).Duration(); d < 80 {
		t.Fatalf("DelayReturn duration = %d, want >= 80", d)
	}
	// The return value must still arrive.
	if got := e.Call("Main", 0).Return.Int; got != 1 {
		t.Fatalf("Main = %d, want 1", got)
	}
}

func TestInjectForceReturn(t *testing.T) {
	p := NewProgram("force", "Main")
	p.Globals["touched"] = 0
	p.AddFunc("Slow",
		Sleep{Ticks: Lit(100)},
		WriteGlobal{Var: "touched", Src: Lit(1)},
		Return{Val: Lit(5)},
	)
	p.AddFunc("Main", Call{Fn: "Slow", Dst: "r"}, Return{Val: V("r")})
	want := int64(42)
	e := MustRun(p, 1, RunOptions{Plan: Plan{"Slow": {ForceReturn: &want}}})
	span := e.Call("Slow", 0)
	if span.Return.Int != 42 {
		t.Fatalf("forced return = %v, want 42", span.Return)
	}
	if span.Duration() > 10 {
		t.Fatalf("premature return should be fast, took %d ticks", span.Duration())
	}
	if got := e.Call("Main", 0).Return.Int; got != 42 {
		t.Fatalf("caller saw %d, want 42", got)
	}
	// The body was skipped entirely: the global write never happened.
	for _, a := range span.Accesses {
		if a.Object == "touched" {
			t.Fatal("ForceReturn should skip the body")
		}
	}
}

func TestInjectForceReturnVoid(t *testing.T) {
	p := NewProgram("forcevoid", "Main")
	p.Globals["touched"] = 0
	p.AddFunc("Slow", Sleep{Ticks: Lit(100)}, WriteGlobal{Var: "touched", Src: Lit(1)})
	p.AddFunc("Main", Call{Fn: "Slow"})
	e := MustRun(p, 1, RunOptions{Plan: Plan{"Slow": {ForceReturnVoid: true}}})
	if d := e.Call("Slow", 0).Duration(); d > 10 {
		t.Fatalf("void premature return took %d ticks", d)
	}
}

func TestInjectOverrideReturn(t *testing.T) {
	p := NewProgram("override", "Main")
	p.Globals["sideEffect"] = 0
	p.AddFunc("Compute",
		WriteGlobal{Var: "sideEffect", Src: Lit(1)},
		Return{Val: Lit(13)},
	)
	p.AddFunc("Main", Call{Fn: "Compute", Dst: "r"}, Return{Val: V("r")})
	want := int64(50)
	e := MustRun(p, 1, RunOptions{Plan: Plan{"Compute": {OverrideReturn: &want}}})
	if got := e.Call("Main", 0).Return.Int; got != 50 {
		t.Fatalf("override saw %d, want 50", got)
	}
	// Unlike ForceReturn, the body still runs.
	found := false
	for _, a := range e.Call("Compute", 0).Accesses {
		if a.Object == "sideEffect" {
			found = true
		}
	}
	if !found {
		t.Fatal("OverrideReturn must not skip the body")
	}
}

func TestInjectCatchExceptions(t *testing.T) {
	p := NewProgram("catch", "Main")
	p.AddFunc("Risky", Throw{Kind: "Boom"})
	p.AddFunc("Main", Call{Fn: "Risky", Dst: "r"}, Return{Val: V("r")})
	// Without injection the program crashes.
	if e := MustRun(p, 1, RunOptions{}); !e.Failed() {
		t.Fatal("baseline should crash")
	}
	e := MustRun(p, 1, RunOptions{Plan: Plan{"Risky": {CatchExceptions: true, CatchValue: 9}}})
	if e.Failed() {
		t.Fatalf("catch injection did not absorb: %s", e.FailureSig)
	}
	span := e.Call("Risky", 0)
	if span.Exception != "" {
		t.Fatalf("absorbed span still records exception %q", span.Exception)
	}
	if got := e.Call("Main", 0).Return.Int; got != 9 {
		t.Fatalf("recovery value = %d, want 9", got)
	}
}

func TestInjectOrderEnforcement(t *testing.T) {
	// Buggy order: Second may run before First; injection forces First
	// before Second via signal/wait.
	p := NewProgram("order", "Main")
	p.Globals["log"] = 0
	p.AddFunc("First", WriteGlobal{Var: "log", Src: Lit(1)})
	p.AddFunc("Second",
		ReadGlobal{Var: "log", Dst: "x"},
		If{Cond: Cond{A: V("x"), Op: EQ, B: Lit(0)},
			Then: []Op{Fail{Sig: "order-violation"}}},
	)
	p.AddFunc("Main",
		Spawn{Fn: "First", Dst: "a"},
		Spawn{Fn: "Second", Dst: "b"},
		Join{Thread: V("a")},
		Join{Thread: V("b")},
	)
	failures := 0
	for seed := int64(0); seed < 100; seed++ {
		if e := MustRun(p, seed, RunOptions{}); e.Failed() {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("order bug never manifested in 100 seeds")
	}
	plan := Plan{
		"First":  {SignalAfter: []Signal{{Var: "firstDone", Val: 1}}},
		"Second": {WaitBefore: []Signal{{Var: "firstDone", Val: 1}}},
	}
	for seed := int64(0); seed < 100; seed++ {
		if e := MustRun(p, seed, RunOptions{Plan: plan}); e.Failed() {
			t.Fatalf("seed %d still fails under order enforcement: %s", seed, e.FailureSig)
		}
	}
}

// TestPlanAdd checks same-method composition and that composing never
// rewrites a slice the caller still holds: an aliased write would
// silently change a plan already used in a run.
func TestPlanAdd(t *testing.T) {
	v := int64(1)
	p := Plan{"M": {DelayStart: 10}, "N": {GlobalLocks: []string{"x"}}}
	p.Add("M", MethodInjection{DelayStart: 5, ForceReturn: &v})
	p.Add("O", MethodInjection{CatchExceptions: true})
	if len(p) != 3 {
		t.Fatalf("composed plan has %d entries, want 3", len(p))
	}
	if p["M"].DelayStart != 10 {
		t.Fatalf("composition should keep max delay, got %d", p["M"].DelayStart)
	}
	if p["M"].ForceReturn == nil || *p["M"].ForceReturn != 1 {
		t.Fatal("composition lost ForceReturn")
	}
	if len(p["N"].GlobalLocks) != 1 || p["N"].GlobalLocks[0] != "x" || !p["O"].CatchExceptions {
		t.Fatal("composition lost disjoint entries")
	}

	// A held lock list with spare capacity: appending in place would
	// rewrite the caller's backing array.
	held := append(make([]string, 0, 4), "x", "y", "z")
	p = Plan{"m": {GlobalLocks: held}}
	p.Add("m", MethodInjection{GlobalLocks: []string{"a"}})
	if got := held[:cap(held)]; !reflect.DeepEqual(got[:3], []string{"x", "y", "z"}) || got[3] != "" {
		t.Fatalf("held lock list rewritten to %q", got)
	}
	if got := p["m"].GlobalLocks; !reflect.DeepEqual(got, []string{"a", "x", "y", "z"}) {
		t.Fatalf("composed locks = %q, want [a x y z]", got)
	}

	// Adding nothing must not sort an unsorted held list in place.
	unsorted := []string{"q", "p"}
	p = Plan{"m": {GlobalLocks: unsorted}}
	p.Add("m", MethodInjection{})
	if !reflect.DeepEqual(unsorted, []string{"q", "p"}) {
		t.Fatalf("held lock list reordered to %q", unsorted)
	}

	// Slices passed in with an earlier injection belong to the caller
	// too: later additions to the same method must not write them.
	sig := append(make([]Signal, 0, 4), Signal{Var: "f", Val: 1})
	waits := append(make([]Signal, 0, 4), Signal{Var: "w", Val: 1})
	p = Plan{}
	p.Add("m", MethodInjection{SignalAfter: sig, WaitBefore: waits})
	p.Add("m", MethodInjection{SignalAfter: []Signal{{Var: "g", Val: 1}}, WaitBefore: []Signal{{Var: "w", Val: 1}, {Var: "v", Val: 2}}})
	if got := sig[:cap(sig)]; got[1] != (Signal{}) {
		t.Fatalf("held signal list rewritten to %v", got)
	}
	if got := waits[:cap(waits)]; got[1] != (Signal{}) {
		t.Fatalf("held wait list rewritten to %v", got)
	}
	if got := p["m"].SignalAfter; !reflect.DeepEqual(got, []Signal{{"f", 1}, {"g", 1}}) {
		t.Fatalf("composed signals = %v", got)
	}
	if got := p["m"].WaitBefore; !reflect.DeepEqual(got, []Signal{{"w", 1}, {"v", 2}}) {
		t.Fatalf("composed waits = %v, want first-occurrence order without duplicates", got)
	}
}

func TestMethodInjectionEmpty(t *testing.T) {
	if !(MethodInjection{}).Empty() {
		t.Fatal("zero injection should be Empty")
	}
	if (MethodInjection{DelayStart: 1}).Empty() {
		t.Fatal("delay injection should not be Empty")
	}
	if (MethodInjection{WaitBefore: []Signal{{Var: "x"}}}).Empty() {
		t.Fatal("wait injection should not be Empty")
	}
}

func TestInjectedRunsStayDeterministic(t *testing.T) {
	plan := Plan{"Worker": {GlobalLocks: []string{"inj"}, DelayStart: 3}}
	a := MustRun(racyProgram(), 9, RunOptions{Plan: plan})
	b := MustRun(racyProgram(), 9, RunOptions{Plan: plan})
	if a.ID != b.ID || len(a.Calls) != len(b.Calls) {
		t.Fatal("injected runs differ across identical invocations")
	}
	for i := range a.Calls {
		if a.Calls[i].Start != b.Calls[i].Start || a.Calls[i].End != b.Calls[i].End {
			t.Fatal("injected runs differ in span timing")
		}
	}
	_ = trace.Execution{}
}
