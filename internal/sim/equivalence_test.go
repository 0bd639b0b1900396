package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aid/internal/trace"
)

// This file is the compiled engine's oracle harness: every program is
// run by both engines and the JSON-encoded traces must be
// byte-identical. The interpreter (EngineInterpreter) is the reference
// semantics; the compiled engine must match it step for step, because
// timestamps and the scheduler's RNG draws are step counters.

// assertEngineParity runs p under both engines for each seed and fails
// on the first byte difference.
func assertEngineParity(t *testing.T, p *Program, seeds []int64, plan Plan, maxSteps int) {
	t.Helper()
	for _, seed := range seeds {
		want, err := Run(p, seed, RunOptions{Plan: plan, MaxSteps: maxSteps, Engine: EngineInterpreter})
		if err != nil {
			t.Fatalf("%s seed %d: interpreter: %v", p.Name, seed, err)
		}
		got, err := Run(p, seed, RunOptions{Plan: plan, MaxSteps: maxSteps, Engine: EngineCompiled})
		if err != nil {
			t.Fatalf("%s seed %d: compiled: %v", p.Name, seed, err)
		}
		wj, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gj, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wj, gj) {
			t.Fatalf("%s seed %d: engines diverge\ninterpreter: %s\ncompiled:    %s",
				p.Name, seed, wj, gj)
		}
	}
}

func TestEquivalenceHandWrittenPrograms(t *testing.T) {
	seeds := []int64{0, 1, 2, 3, 7, 42, 97}
	progs := []*Program{
		sequentialProgram(),
		racyProgram(),
		batchProgram(),
	}
	for _, p := range progs {
		assertEngineParity(t, p, seeds, nil, 0)
	}
	// Injected variants of the racy program: the Fig. 2 intervention
	// vocabulary, one mechanism at a time and all merged.
	seven := int64(7)
	plans := []Plan{
		{"Worker": {GlobalLocks: []string{"inj"}}},
		{"Worker": {DelayStart: 3, DelayReturn: 5}},
		{"Worker": {ForceReturnVoid: true}},
		{"Worker": {OverrideReturn: &seven}},
		{"Worker": {CatchExceptions: true, CatchValue: 9}},
		{
			"Worker": {GlobalLocks: []string{"inj"}, DelayStart: 2, SignalAfter: []Signal{{Var: "w.done", Val: 1}}},
			"Main":   {WaitBefore: nil, DelayReturn: 1},
		},
	}
	for _, plan := range plans {
		assertEngineParity(t, racyProgram(), seeds, plan, 0)
	}

	// The one start-time tie, at tick 0: the entry span and the span its
	// first op opens. A self-call ties on (thread, method), and the
	// callee comes first with instance 0; it recurses until the step
	// budget declares a hang. A spawn ties on start alone.
	self := NewProgram("selfcall", "Main")
	self.AddFunc("Main", Call{Fn: "Main"})
	assertEngineParity(t, self, seeds, nil, 50)
	spawn := NewProgram("spawnfirst", "Main")
	spawn.Globals["g"] = 0
	spawn.AddFunc("A", WriteGlobal{Var: "g", Src: Lit(1)})
	spawn.AddFunc("Main", Spawn{Fn: "A", Dst: "t"}, Join{Thread: V("t")}, ReadGlobal{Var: "g", Dst: "x"})
	assertEngineParity(t, spawn, seeds, nil, 0)
}

func TestEquivalenceOrderInjection(t *testing.T) {
	p := NewProgram("order", "Main")
	p.Globals["g"] = 0
	p.AddFunc("A", WriteGlobal{Var: "g", Src: Lit(1)})
	p.AddFunc("B", ReadGlobal{Var: "g", Dst: "x"}, Return{Val: V("x")})
	p.AddFunc("Main",
		Spawn{Fn: "A", Dst: "ta"},
		Spawn{Fn: "B", Dst: "tb"},
		Join{Thread: V("ta")},
		Join{Thread: V("tb")},
	)
	plan := Plan{
		"A": {SignalAfter: []Signal{{Var: "aid.order:t", Val: 1}}},
		"B": {WaitBefore: []Signal{{Var: "aid.order:t", Val: 1}}},
	}
	assertEngineParity(t, p, []int64{0, 1, 2, 3, 4, 5}, plan, 0)
}

// genProgram builds a random structured program: nested control flow,
// shared state, locks, spawns, exceptions — everything both engines
// must agree on, including runs that deadlock, hang, or crash.
func genProgram(r *rand.Rand, id int) *Program {
	p := NewProgram(fmt.Sprintf("fuzz%03d", id), "Main")
	for g := 0; g < 3; g++ {
		p.Globals[fmt.Sprintf("g%d", g)] = int64(r.Intn(3))
	}
	p.Arrays["arr"] = make([]int64, r.Intn(4))
	for i := range p.Arrays["arr"] {
		p.Arrays["arr"][i] = int64(r.Intn(10))
	}
	nFuncs := 2 + r.Intn(3)
	names := make([]string, nFuncs)
	for i := range names {
		names[i] = fmt.Sprintf("F%d", i)
	}
	g := &fuzzGen{r: r, names: names}
	for i := nFuncs - 1; i >= 0; i-- {
		// Fi may only call Fj with j > i, so call graphs stay acyclic
		// and runs terminate (up to deliberate infinite loops).
		g.callable = names[i+1:]
		p.AddFunc(names[i], g.block(2, 4+r.Intn(4))...)
	}
	g.callable = names
	body := []Op{}
	spawns := r.Intn(3)
	for s := 0; s < spawns; s++ {
		body = append(body, Spawn{Fn: names[r.Intn(len(names))], Dst: fmt.Sprintf("t%d", s)})
	}
	body = append(body, g.block(2, 5+r.Intn(5))...)
	for s := 0; s < spawns; s++ {
		if r.Intn(2) == 0 {
			body = append(body, Join{Thread: V(fmt.Sprintf("t%d", s))})
		}
	}
	p.AddFunc("Main", body...)
	return p
}

type fuzzGen struct {
	r        *rand.Rand
	names    []string
	callable []string
	loops    int
}

func (g *fuzzGen) expr() Expr {
	if g.r.Intn(2) == 0 {
		return Lit(int64(g.r.Intn(7) - 1))
	}
	return V(fmt.Sprintf("v%d", g.r.Intn(4)))
}

func (g *fuzzGen) cond() Cond {
	return Cond{A: g.expr(), Op: CmpOp(g.r.Intn(6)), B: g.expr()}
}

func (g *fuzzGen) block(depth, n int) []Op {
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, g.op(depth))
	}
	return ops
}

func (g *fuzzGen) op(depth int) Op {
	r := g.r
	kinds := []string{"K0", "K1", ExcObjectDisposed}
	switch k := r.Intn(22); {
	case k == 0:
		return Assign{Dst: fmt.Sprintf("v%d", r.Intn(4)), Src: g.expr()}
	case k == 1:
		return Arith{Dst: fmt.Sprintf("v%d", r.Intn(4)), A: g.expr(), Op: ArithOp(r.Intn(5)), B: g.expr()}
	case k == 2:
		return ReadGlobal{Var: fmt.Sprintf("g%d", r.Intn(3)), Dst: fmt.Sprintf("v%d", r.Intn(4))}
	case k == 3:
		return WriteGlobal{Var: fmt.Sprintf("g%d", r.Intn(3)), Src: g.expr()}
	case k == 4:
		return ArrayRead{Arr: "arr", Index: g.expr(), Dst: fmt.Sprintf("v%d", r.Intn(4))}
	case k == 5:
		return ArrayWrite{Arr: "arr", Index: g.expr(), Src: g.expr()}
	case k == 6:
		if r.Intn(2) == 0 {
			return ArrayLen{Arr: "arr", Dst: fmt.Sprintf("v%d", r.Intn(4))}
		}
		return ArrayResize{Arr: "arr", Len: g.expr()}
	case k == 7:
		return Lock{Mu: fmt.Sprintf("m%d", r.Intn(2))}
	case k == 8:
		return Unlock{Mu: fmt.Sprintf("m%d", r.Intn(2))}
	case k == 9:
		return Sleep{Ticks: Lit(int64(r.Intn(5)))}
	case k == 10 && len(g.callable) > 0:
		fn := g.callable[r.Intn(len(g.callable))]
		dst := ""
		if r.Intn(2) == 0 {
			dst = fmt.Sprintf("v%d", r.Intn(4))
		}
		return Call{Fn: fn, Dst: dst}
	case k == 11:
		if r.Intn(2) == 0 {
			return Return{Val: g.expr()}
		}
		return ReturnVoid{}
	case k == 12:
		return Throw{Kind: kinds[r.Intn(len(kinds))]}
	case k == 13 && depth > 0:
		catch := kinds[r.Intn(len(kinds))]
		if r.Intn(3) == 0 {
			catch = "*"
		}
		return Try{
			Body:      g.block(depth-1, 1+r.Intn(3)),
			CatchKind: catch,
			Handler:   g.block(depth-1, r.Intn(3)),
		}
	case k == 14 && depth > 0:
		var els []Op
		if r.Intn(2) == 0 {
			els = g.block(depth-1, r.Intn(3))
		}
		return If{Cond: g.cond(), Then: g.block(depth-1, r.Intn(3)), Else: els}
	case k == 15 && depth > 0:
		// Counter-bounded loop most of the time; one unbounded loop per
		// program at most keeps hang runs (also compared!) rare.
		i := fmt.Sprintf("i%d", g.loops)
		g.loops++
		body := g.block(depth-1, 1+r.Intn(3))
		body = append(body, Arith{Dst: i, A: V(i), Op: OpAdd, B: Lit(1)})
		return If{Cond: Cond{A: Lit(0), Op: EQ, B: Lit(0)}, Then: []Op{
			Assign{Dst: i, Src: Lit(0)},
			While{Cond: Cond{A: V(i), Op: LT, B: Lit(int64(1 + r.Intn(3)))}, Body: body},
		}}
	case k == 16:
		return Random{Dst: fmt.Sprintf("v%d", r.Intn(4)), N: g.expr()}
	case k == 17:
		return ReadClock{Dst: fmt.Sprintf("v%d", r.Intn(4))}
	case k == 18:
		return WaitUntil{Var: fmt.Sprintf("g%d", r.Intn(3)), Val: Lit(int64(r.Intn(2)))}
	case k == 19 && r.Intn(4) == 0:
		return Fail{Sig: "corruption"}
	default:
		return Nop{}
	}
}

// genPlan builds a random injection plan over the program's functions.
// Besides each mechanism alone it emits order waits, on flags other
// injected methods may or may not signal (a wait nobody releases ends
// the run in a deadlock or a hang) and on a program global, and mixed
// prologues: waits, two locks (one of them sometimes the program's own
// mutex) and a start delay on one method, ending in a forced return or
// the body. Together they reach every stub chain Prepare builds.
func genPlan(r *rand.Rand, p *Program) Plan {
	flags := []string{"aid.order:a", "aid.order:b", "g0"}
	locks := []string{"aid.lock:x", "aid.lock:y", "m1", "z.lock"}
	wait := func() Signal { return Signal{Var: flags[r.Intn(len(flags))], Val: int64(r.Intn(2))} }
	plan := Plan{}
	for _, fn := range p.FuncNames() {
		if r.Intn(3) != 0 {
			continue
		}
		var inj MethodInjection
		switch r.Intn(8) {
		case 0:
			inj.GlobalLocks = []string{"aid.lock:x"}
			if r.Intn(2) == 0 {
				inj.GlobalLocks = append(inj.GlobalLocks, "aid.lock:y")
			}
		case 1:
			inj.DelayStart = trace.Time(r.Intn(4))
			inj.DelayReturn = trace.Time(r.Intn(4))
		case 2:
			v := int64(r.Intn(5))
			inj.ForceReturn = &v
		case 3:
			inj.ForceReturnVoid = true
		case 4:
			v := int64(r.Intn(5))
			inj.OverrideReturn = &v
		case 5:
			inj.CatchExceptions = true
			inj.CatchValue = int64(r.Intn(5))
		case 6:
			inj.WaitBefore = []Signal{wait()}
		case 7:
			inj.WaitBefore = []Signal{wait()}
			if r.Intn(2) == 0 {
				inj.WaitBefore = append(inj.WaitBefore, wait())
			}
			// Two distinct locks, listed in either order.
			a := r.Intn(len(locks))
			b := (a + 1 + r.Intn(len(locks)-1)) % len(locks)
			inj.GlobalLocks = []string{locks[a], locks[b]}
			inj.DelayStart = trace.Time(1 + r.Intn(3))
			switch r.Intn(3) {
			case 0:
				v := int64(r.Intn(5))
				inj.ForceReturn = &v
			case 1:
				inj.ForceReturnVoid = true
			}
		}
		if r.Intn(3) == 0 {
			inj.SignalAfter = []Signal{{Var: flags[r.Intn(2)], Val: 1}}
		}
		if !inj.Empty() {
			plan[fn] = inj
		}
	}
	return plan
}

// TestEquivalenceProperty is the compiled-vs-interpreted property test:
// randomized programs, seeds and injection plans must produce
// byte-identical JSON traces on both engines, including deadlocking,
// hanging and crashing runs.
func TestEquivalenceProperty(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	r := rand.New(rand.NewSource(20260728))
	for i := 0; i < n; i++ {
		p := genProgram(r, i)
		assertEngineParity(t, p, []int64{1, 2, 3}, nil, 2000)
		assertEngineParity(t, p, []int64{1, 2}, genPlan(r, p), 2000)
	}
}

// TestStdlibSourceMatchesInterpreter exercises the fallback
// newSchedulerSource takes when fastSource fails verification: one
// compiled machine seeded from rand.NewSource runs the property
// generator's programs, seeds and plans, and every trace must be
// byte-identical to the interpreter oracle's.
func TestStdlibSourceMatchesInterpreter(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	m := &machine{src: rand.NewSource(0)}
	m.rng = rand.New(m.src)
	check := func(p *Program, plan Plan, seed int64) {
		t.Helper()
		want, err := Run(p, seed, RunOptions{Plan: plan, MaxSteps: 2000, Engine: EngineInterpreter})
		if err != nil {
			t.Fatalf("%s seed %d: interpreter: %v", p.Name, seed, err)
		}
		pp, err := Prepare(p, plan)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := pp.run(m, seed, Budget{MaxSteps: 2000}, nil, nil)
		wj, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gj, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wj, gj) {
			t.Fatalf("%s seed %d: stdlib-source machine diverges\ninterpreter: %s\ncompiled:    %s", p.Name, seed, wj, gj)
		}
	}
	r := rand.New(rand.NewSource(20260728))
	for i := 0; i < n; i++ {
		p := genProgram(r, i)
		for _, seed := range []int64{1, 2, 3} {
			check(p, nil, seed)
		}
		plan := genPlan(r, p)
		for _, seed := range []int64{1, 2} {
			check(p, plan, seed)
		}
	}
}

// TestVerdictEquivalenceProperty pins conditional assembly: over the
// property generator's programs, seeds and plans, a run that skips
// trace assembly must decide the same (failed, sig) verdict as the
// assembled trace's Outcome and FailureSig — for every ending (success,
// uncaught exception, Fail, deadlock, hang), unguarded and guarded —
// and a kept run must return exactly Run's trace. Panics and blown
// wall budgets must surface as the same errors RunGuarded reports.
func TestVerdictEquivalenceProperty(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	never := func(Verdict) bool { return false }
	endings := map[string]int{}
	check := func(p *Program, plan Plan, seed int64, maxSteps int) {
		t.Helper()
		pp, err := Prepare(p, plan)
		if err != nil {
			t.Fatal(err)
		}
		want := pp.Run(seed, maxSteps)
		wantV := Verdict{Failed: want.Outcome == trace.Failure, Sig: want.FailureSig}
		switch {
		case !wantV.Failed:
			endings["success"]++
		case wantV.Sig == SigHang || wantV.Sig == SigDeadlock:
			endings[wantV.Sig]++
		default:
			endings["crash"]++
		}
		var seen Verdict
		exec, v := pp.RunIf(seed, maxSteps, func(v Verdict) bool { seen = v; return false })
		if v != wantV || seen != wantV || exec.ID != "" || exec.Calls != nil {
			t.Fatalf("%s seed %d: verdict-only run = %+v (keep saw %+v, trace %q), assembled trace says %+v",
				p.Name, seed, v, seen, exec.ID, wantV)
		}
		kept, v := pp.RunIf(seed, maxSteps, func(Verdict) bool { return true })
		if v != wantV || !reflect.DeepEqual(kept, want) {
			t.Fatalf("%s seed %d: kept RunIf differs from Run", p.Name, seed)
		}
		_, v, err = pp.RunGuardedIf(seed, Budget{MaxSteps: maxSteps}, never)
		if err != nil || v != wantV {
			t.Fatalf("%s seed %d: guarded verdict-only run = %+v, %v; want %+v", p.Name, seed, v, err, wantV)
		}
	}
	r := rand.New(rand.NewSource(20261017))
	for i := 0; i < n; i++ {
		p := genProgram(r, i)
		for _, seed := range []int64{1, 2, 3} {
			check(p, nil, seed, 2000)
		}
		plan := genPlan(r, p)
		for _, seed := range []int64{1, 2} {
			check(p, plan, seed, 2000)
		}
		// A tight step budget cuts runs off mid-flight: the hang
		// verdict, with spans still open.
		check(p, plan, 3, 12)
	}
	for _, ending := range []string{"success", "crash", SigDeadlock, SigHang} {
		if endings[ending] == 0 {
			t.Errorf("generator produced no %s run; endings: %v", ending, endings)
		}
	}

	// Guarded failures: the verdict-only path reports what RunGuarded
	// reports, with no verdict.
	panicky, err := Prepare(guardPanicProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, v, err := panicky.RunGuardedIf(4, Budget{}, never)
	var pe *ReplayPanicError
	if !errors.As(err, &pe) || pe.Seed != 4 || v != (Verdict{}) {
		t.Fatalf("panicking verdict-only run: %+v, %T %v", v, err, err)
	}
	spin, err := Prepare(guardSpinProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, v, err = spin.RunGuardedIf(1, Budget{MaxSteps: 1 << 20, WallClock: time.Nanosecond}, never)
	var be *BudgetError
	if !errors.As(err, &be) || be.Seed != 1 || v != (Verdict{}) {
		t.Fatalf("over-budget verdict-only run: %+v, %T %v", v, err, err)
	}
	// keep is never consulted on a blown budget: nothing to assemble.
	_, _, err = spin.RunGuardedIf(1, Budget{MaxSteps: 1 << 20, WallClock: time.Nanosecond}, func(Verdict) bool {
		t.Fatal("keep consulted for an over-budget run")
		return true
	})
	if !errors.As(err, &be) {
		t.Fatalf("over-budget kept run: %T %v", err, err)
	}
}
