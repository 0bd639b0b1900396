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
// byte-identical. The interpreter (runInterpreted) is the reference
// semantics; the compiled engine must match it step for step, because
// timestamps and the scheduler's RNG draws are step counters.

// assertEngineParity runs p under both engines for each seed and fails
// on the first byte difference, and requires the compiled run's logs
// to describe the interpreter's trace.
func assertEngineParity(t *testing.T, p *Program, seeds []int64, plan Plan, maxSteps int) {
	t.Helper()
	for _, seed := range seeds {
		want, err := runInterpreted(p, seed, RunOptions{Plan: plan, MaxSteps: maxSteps})
		if err != nil {
			t.Fatalf("%s seed %d: interpreter: %v", p.Name, seed, err)
		}
		got, err := Run(p, seed, RunOptions{Plan: plan, MaxSteps: maxSteps})
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
		assertLogMatches(t, p, plan, seed, maxSteps, want)
	}
}

// assertLogMatches requires the logs Observe hands out for (p, plan,
// seed) to hold what the trace want holds: the same spans in the same
// order, with the same methods, instance numbers, threads, windows,
// returns and failures, and each span's accesses, logged in strictly
// increasing time, with the same objects, kinds, times and lockset
// sizes.
func assertLogMatches(t *testing.T, p *Program, plan Plan, seed int64, maxSteps int, want trace.Execution) {
	t.Helper()
	pp, err := Prepare(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	syms, err := p.Symbols()
	if err != nil {
		t.Fatal(err)
	}
	_, err = pp.Observe(seed, Budget{MaxSteps: maxSteps}, func(_ Verdict, l *trace.RunLog) {
		if len(l.Spans) != len(want.Calls) {
			t.Fatalf("%s seed %d: %d logged spans, %d calls", p.Name, seed, len(l.Spans), len(want.Calls))
		}
		next := make([]int, len(want.Calls)) // per span, its call's next access
		for k, a := range l.Accesses {
			c := &want.Calls[a.Span]
			if k > 0 && a.At <= l.Accesses[k-1].At || next[a.Span] == len(c.Accesses) {
				t.Fatalf("%s seed %d: logged access %d %+v out of order or extra", p.Name, seed, k, a)
			}
			w := &c.Accesses[next[a.Span]]
			next[a.Span]++
			if syms.Objects[a.Obj] != w.Object || trace.AccessKind(a.Kind) != w.Kind || a.At != w.At || len(l.Lockset(a.Lockset)) != len(w.Locks) {
				t.Fatalf("%s seed %d: logged access %+v, traced %+v", p.Name, seed, a, *w)
			}
		}
		for i, s := range l.Spans {
			c := &want.Calls[i]
			if syms.Funcs[s.Fn] != c.Method || s.Instance != c.Instance || s.Thread != c.Thread || s.Start != c.Start ||
				s.End != c.End || s.Return != c.Return || s.Failed() != c.Failed() || next[i] != len(c.Accesses) {
				t.Fatalf("%s seed %d: logged span %d %+v, traced %+v", p.Name, seed, i, s, *c)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
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

	// Wake-ups caused by a thread that keeps running: an unlock hands
	// the mutex to a blocked thread, a write releases a thread waiting
	// on the flag, and an injected SignalAfter releases another method's
	// WaitBefore. The waiter must become runnable at once, not when the
	// releaser next blocks or exits. Main sleeps until the waiter has
	// blocked, then releases it and writes g three times.
	writes := []Op{
		WriteGlobal{Var: "g", Src: Lit(1)}, WriteGlobal{Var: "g", Src: Lit(2)}, WriteGlobal{Var: "g", Src: Lit(3)},
		Join{Thread: V("t")},
	}
	handoff := NewProgram("handoff", "Main")
	handoff.Globals["g"] = 0
	handoff.AddFunc("Waiter", Lock{Mu: "m"}, ReadGlobal{Var: "g", Dst: "x"}, Unlock{Mu: "m"})
	handoff.AddFunc("Main", append([]Op{
		Lock{Mu: "m"}, Spawn{Fn: "Waiter", Dst: "t"}, Sleep{Ticks: Lit(3)}, Unlock{Mu: "m"},
	}, writes...)...)
	assertEngineParity(t, handoff, seeds, nil, 0)
	flag := NewProgram("flagwake", "Main")
	flag.Globals["f"] = 0
	flag.Globals["g"] = 0
	flag.AddFunc("Waiter", WaitUntil{Var: "f", Val: Lit(1)}, ReadGlobal{Var: "g", Dst: "x"})
	flag.AddFunc("Main", append([]Op{
		Spawn{Fn: "Waiter", Dst: "t"}, Sleep{Ticks: Lit(3)}, WriteGlobal{Var: "f", Src: Lit(1)},
	}, writes...)...)
	assertEngineParity(t, flag, seeds, nil, 0)
	signal := NewProgram("signalwake", "Main")
	signal.Globals["g"] = 0
	signal.AddFunc("A", ReadGlobal{Var: "g", Dst: "x"})
	signal.AddFunc("Waiter", ReadGlobal{Var: "g", Dst: "x"})
	signal.AddFunc("Main", append([]Op{
		Spawn{Fn: "Waiter", Dst: "t"}, Sleep{Ticks: Lit(3)}, Call{Fn: "A"},
	}, writes...)...)
	assertEngineParity(t, signal, seeds, Plan{
		"A":      {SignalAfter: []Signal{{Var: "aid.order:w", Val: 1}}},
		"Waiter": {WaitBefore: []Signal{{Var: "aid.order:w", Val: 1}}},
	}, 0)
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

// genSchedProgram is genProgram's scheduling-weighted mode: programs
// whose runs turn on the events that change which threads can run.
// Main draws alone, then spawns 65-72 threads in a loop that picks
// each one's function with Random while the others run, and ends by
// setting flags and joining threads that may be sleeping, blocked or
// finished. The bodies hold mutexes across long sleeps (several
// waiters per mutex, lock-order deadlocks), wait on flags other
// threads write, sleep long and overlapping, join any thread id (their
// own, or one not yet spawned, too), draw Random among many runnable
// threads, and call the functions after them. Runs end in success or
// deadlock; the test cuts them off to get hangs.
func genSchedProgram(r *rand.Rand, id int) *Program {
	p := NewProgram(fmt.Sprintf("sched%03d", id), "Main")
	for _, g := range []string{"g0", "g1", "f0", "f1"} {
		p.Globals[g] = 0
	}
	nThreads := 65 + r.Intn(8)
	nFuncs := 2 + r.Intn(3)
	names := make([]string, nFuncs)
	for i := range names {
		names[i] = fmt.Sprintf("F%d", i)
	}
	g := &schedGen{r: r, threads: nThreads}
	for i := nFuncs - 1; i >= 0; i-- {
		g.callable = names[i+1:]
		p.AddFunc(names[i], g.block(3+r.Intn(4))...)
	}
	g.callable = names
	main := []Op{Random{Dst: "k", N: Lit(5)}, Sleep{Ticks: Lit(int64(r.Intn(3)))}, Random{Dst: "k", N: Lit(3)}}
	pick := []Op{Random{Dst: "k", N: Lit(int64(nFuncs))}}
	for i, fn := range names {
		pick = append(pick, If{Cond: Cond{A: V("k"), Op: EQ, B: Lit(int64(i))}, Then: []Op{Spawn{Fn: fn, Dst: "t"}}})
	}
	main = append(main,
		Assign{Dst: "n", Src: Lit(0)},
		While{Cond: Cond{A: V("n"), Op: LT, B: Lit(int64(nThreads))}, Body: append(pick,
			Arith{Dst: "n", A: V("n"), Op: OpAdd, B: Lit(1)})},
	)
	main = append(main, g.block(2+r.Intn(3))...)
	for _, f := range []string{"f0", "f1"} {
		if r.Intn(3) != 0 {
			main = append(main, WriteGlobal{Var: f, Src: Lit(1)})
		}
	}
	for j := 0; j < 3; j++ {
		main = append(main, Join{Thread: Lit(int64(1 + r.Intn(nThreads)))})
	}
	main = append(main, Join{Thread: V("t")}, Random{Dst: "k", N: Lit(7)}, ReadGlobal{Var: "g0", Dst: "x"})
	p.AddFunc("Main", main...)
	return p
}

type schedGen struct {
	r        *rand.Rand
	threads  int
	callable []string
}

func (g *schedGen) block(n int) []Op {
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, g.op()...)
	}
	return ops
}

func (g *schedGen) op() []Op {
	r := g.r
	mu := fmt.Sprintf("m%d", r.Intn(2))
	flag := fmt.Sprintf("f%d", r.Intn(2))
	switch r.Intn(13) {
	case 0, 1:
		// A critical section across a long sleep: every other thread
		// running this body queues on the mutex.
		return []Op{Lock{Mu: mu}, Sleep{Ticks: Lit(int64(r.Intn(20)))}, WriteGlobal{Var: "g0", Src: Lit(1)}, Unlock{Mu: mu}}
	case 2:
		// Nested locks, in either order: lock-order deadlocks.
		a, b := "m0", "m1"
		if r.Intn(2) == 0 {
			a, b = b, a
		}
		return []Op{Lock{Mu: a}, Sleep{Ticks: Lit(int64(r.Intn(3)))}, Lock{Mu: b}, Unlock{Mu: b}, Unlock{Mu: a}}
	case 3:
		return []Op{Sleep{Ticks: Lit(int64(r.Intn(40)))}}
	case 4:
		return []Op{WaitUntil{Var: flag, Val: Lit(1)}}
	case 5:
		// A flag set and, sometimes, cleared again: waiters released by
		// a write may find it unset by the time they run.
		ops := []Op{WriteGlobal{Var: flag, Src: Lit(1)}}
		if r.Intn(3) == 0 {
			ops = append(ops, WriteGlobal{Var: flag, Src: Lit(0)})
		}
		return ops
	case 6:
		// A thread not yet spawned (or out of range) throws; the handler
		// keeps the run going.
		return []Op{Try{Body: []Op{Join{Thread: Lit(int64(r.Intn(g.threads + 2)))}}, CatchKind: "*"}}
	case 7:
		return []Op{Random{Dst: "v", N: Lit(int64(1 + r.Intn(6)))}}
	case 8:
		return []Op{ReadGlobal{Var: "g1", Dst: "v"}, Arith{Dst: "v", A: V("v"), Op: OpAdd, B: Lit(1)}, WriteGlobal{Var: "g1", Src: V("v")}}
	case 9, 12:
		// A call returns into a thread that keeps running: an injected
		// SignalAfter on the callee releases its waiters mid-thread.
		if len(g.callable) > 0 {
			return []Op{Call{Fn: g.callable[r.Intn(len(g.callable))]}}
		}
		return []Op{Nop{}}
	case 10:
		return []Op{ReadClock{Dst: "v"}}
	default:
		return []Op{Nop{}}
	}
}

// genSchedPlan is genPlan for genSchedProgram: start and return delays
// long enough to overlap, order waits and signals on injector flags and
// on the program's own flags (which the bodies also clear, so waiters
// block again), and an injected lock shared by several methods. One
// pair is always there: the last function, which the others call,
// signals a flag the first one waits for at entry, so a signal releases
// waiters while the signalling thread runs on.
func genSchedPlan(r *rand.Rand, p *Program) Plan {
	flags := []string{"aid.order:a", "f0", "f1"}
	var fns []string
	for _, fn := range p.FuncNames() {
		if fn != p.Entry {
			fns = append(fns, fn)
		}
	}
	plan := Plan{}
	for _, fn := range fns {
		if r.Intn(2) == 0 {
			continue
		}
		var inj MethodInjection
		switch r.Intn(4) {
		case 0:
			inj.DelayStart = trace.Time(r.Intn(30))
			inj.DelayReturn = trace.Time(r.Intn(30))
		case 1:
			inj.WaitBefore = []Signal{{Var: flags[r.Intn(len(flags))], Val: 1}}
		case 2:
			inj.GlobalLocks = []string{"aid.lock:s"}
			inj.DelayReturn = trace.Time(r.Intn(10))
		}
		if r.Intn(2) == 0 {
			inj.SignalAfter = []Signal{{Var: flags[r.Intn(len(flags))], Val: 1}}
		}
		if !inj.Empty() {
			plan[fn] = inj
		}
	}
	f := flags[1+r.Intn(2)]
	plan.Add(fns[0], MethodInjection{WaitBefore: []Signal{{Var: f, Val: 1}}})
	plan.Add(fns[len(fns)-1], MethodInjection{SignalAfter: []Signal{{Var: f, Val: 1}}})
	return plan
}

// stepsToEnd returns the smallest step budget under which the run of
// pp under seed does not hang, or 0 when it hangs under max.
func stepsToEnd(pp *Prepared, seed int64, max int) int {
	hangs := func(b int) bool {
		_, v := pp.RunIf(seed, b, func(Verdict) bool { return false })
		return v.Sig == SigHang
	}
	if hangs(max) {
		return 0
	}
	lo, hi := 1, max
	for lo < hi {
		if mid := (lo + hi) / 2; hangs(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestEquivalenceScheduling is the property test of genProgram's
// scheduling-weighted mode, on both scheduler sources: each program,
// uninstrumented and under a plan, must give the interpreter's trace on
// the fast source and on the stdlib fallback, with a generous step
// budget, with the budget the run needs exactly, with one step less,
// where the run hangs on its last step, and with half and a quarter of
// it, which cut runs off mid-flight.
func TestEquivalenceScheduling(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 10
	}
	const budget = 6000
	std := newMachine(rand.NewSource(0))
	endings := map[string]int{}
	threads := 0
	r := rand.New(rand.NewSource(20261019))
	for i := 0; i < n; i++ {
		p := genSchedProgram(r, i)
		for _, plan := range []Plan{nil, genSchedPlan(r, p)} {
			pp, err := Prepare(p, plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{1, 2} {
				budgets := []int{budget}
				if end := stepsToEnd(pp, seed, budget); end > 1 {
					budgets = append(budgets, end, end-1, end/2, end/4)
				}
				for _, b := range budgets {
					assertEngineParity(t, p, []int64{seed}, plan, b)
					assertStdlibParity(t, std, p, plan, seed, b)
					exec := pp.Run(seed, b)
					switch {
					case !exec.Failed():
						endings["success"]++
					case exec.FailureSig == SigHang || exec.FailureSig == SigDeadlock:
						endings[exec.FailureSig]++
					}
					for _, c := range exec.Calls {
						threads = max(threads, int(c.Thread)+1)
					}
				}
			}
		}
	}
	for _, ending := range []string{"success", SigDeadlock, SigHang} {
		if endings[ending] == 0 {
			t.Errorf("generator produced no %s run; endings: %v", ending, endings)
		}
	}
	if threads <= 64 {
		t.Errorf("no run had more than 64 threads (most: %d)", threads)
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

// assertStdlibParity runs p on m, a compiled machine seeded from
// rand.NewSource (the fallback rngfast.NewCached takes when its source
// fails verification), and requires the interpreter oracle's trace.
func assertStdlibParity(t *testing.T, m *machine, p *Program, plan Plan, seed int64, maxSteps int) {
	t.Helper()
	want, err := runInterpreted(p, seed, RunOptions{Plan: plan, MaxSteps: maxSteps})
	if err != nil {
		t.Fatalf("%s seed %d: interpreter: %v", p.Name, seed, err)
	}
	pp, err := Prepare(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	got := pp.run(m, seed, Budget{MaxSteps: maxSteps}, nil)
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

// TestStdlibSourceMatchesInterpreter exercises the fallback
// rngfast.NewCached takes when its source fails verification: one
// compiled machine seeded from rand.NewSource runs the property
// generator's programs, seeds and plans, and every trace must be
// byte-identical to the interpreter oracle's.
func TestStdlibSourceMatchesInterpreter(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	m := newMachine(rand.NewSource(0))
	r := rand.New(rand.NewSource(20260728))
	for i := 0; i < n; i++ {
		p := genProgram(r, i)
		for _, seed := range []int64{1, 2, 3} {
			assertStdlibParity(t, m, p, nil, seed, 2000)
		}
		plan := genPlan(r, p)
		for _, seed := range []int64{1, 2} {
			assertStdlibParity(t, m, p, plan, seed, 2000)
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
		run, v := pp.RunIf(seed, maxSteps, func(v Verdict) bool { seen = v; return false })
		if v != wantV || seen != wantV || run.ID != "" || run.Log.Spans != nil {
			t.Fatalf("%s seed %d: verdict-only run = %+v (keep saw %+v, run %q), assembled trace says %+v",
				p.Name, seed, v, seen, run.ID, wantV)
		}
		kept, v := pp.RunIf(seed, maxSteps, func(Verdict) bool { return true })
		if v != wantV || !reflect.DeepEqual(kept.Execution(&pp.syms), want) {
			t.Fatalf("%s seed %d: kept RunIf differs from Run", p.Name, seed)
		}
		v, err = pp.Observe(seed, Budget{MaxSteps: maxSteps}, nil)
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
	v, err := panicky.Observe(4, Budget{}, nil)
	var pe *ReplayPanicError
	if !errors.As(err, &pe) || pe.Seed != 4 || v != (Verdict{}) {
		t.Fatalf("panicking verdict-only run: %+v, %T %v", v, err, err)
	}
	spin, err := Prepare(guardSpinProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err = spin.Observe(1, Budget{MaxSteps: 1 << 20, WallClock: time.Nanosecond}, nil)
	var be *BudgetError
	if !errors.As(err, &be) || be.Seed != 1 || v != (Verdict{}) {
		t.Fatalf("over-budget verdict-only run: %+v, %T %v", v, err, err)
	}
	// observe is never called on a blown budget: there is nothing to
	// read.
	_, err = spin.Observe(1, Budget{MaxSteps: 1 << 20, WallClock: time.Nanosecond}, func(Verdict, *trace.RunLog) {
		t.Fatal("observe called for an over-budget run")
	})
	if !errors.As(err, &be) {
		t.Fatalf("over-budget observed run: %T %v", err, err)
	}
}
