package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"aid/internal/oracle/canon"
	"aid/internal/trace"
)

// The tree-walking interpreter: the original engine, kept as the
// reference oracle the compiled machine is pinned to. It is test-only;
// package sim_test reaches it through RunInterpreted (export_test.go).

type frameKind int

const (
	frameBlock frameKind = iota
	frameCall
	frameWhile
	frameTry
)

type frame struct {
	kind frameKind
	ops  []Op
	pc   int

	// call frames
	fn           *Func
	span         *trace.MethodCall
	dst          string // caller local for the return value
	injected     bool
	catchAll     bool
	catchValue   int64
	override     *int64
	endDelay     trace.Time
	delayApplied bool
	releaseLocks []string
	signalAfter  []Signal

	// while frames
	cond Cond

	// try frames
	catchKind string
	handler   []Op
}

type threadMode int

const (
	modeRun threadMode = iota
	modeReturn
	modeThrow
)

type thread struct {
	id     trace.ThreadID
	frames []*frame
	locals map[string]int64

	mode   threadMode
	retVal trace.Value
	exc    string

	sleepUntil trace.Time // 0 = not sleeping; block while now < sleepUntil
	waitVar    string     // non-"" = blocked until globals[waitVar] == waitVal
	waitVal    int64
	joining    bool
	joinTarget trace.ThreadID
	lockWait   string // non-"" = blocked until mutex free

	// held is kept name-sorted so locksets need no per-access sort.
	held []string
	// locksetCache is the current held set shared by all accesses
	// recorded until the next lock/unlock; it escapes into the trace,
	// so it is freshly allocated per change.
	locksetCache []string
	locksetStale bool

	done bool
}

type world struct {
	prog    *Program
	plan    Plan
	rng     *rand.Rand
	now     trace.Time
	threads []*thread
	globals map[string]int64
	arrays  map[string][]int64
	owners  map[string]trace.ThreadID // mutex -> owner; absent = free

	failed  bool
	failSig string
	exec    trace.Execution
}

// eval compares a and b under the condition's operator.
func (c Cond) eval(a, b int64) bool {
	switch c.Op {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	}
	return false
}

// RunOptions configures one run of the interpreter oracle, and of
// keptTrace in the tests that compare the two.
type RunOptions struct {
	// MaxSteps bounds the scheduler steps; zero means DefaultMaxSteps.
	MaxSteps int
	// Plan is the fault-injection plan (nil for an uninstrumented run).
	Plan Plan
	// Final, when non-nil, receives the interpreter's FinalState.
	Final *FinalState
}

// runInterpreted runs the program on the tree-walking interpreter. The
// compiled machine must produce the identical trace (keptTrace) and
// final state (Prepared.FinalState).
func runInterpreted(p *Program, seed int64, opts RunOptions) (trace.Execution, error) {
	if err := p.Validate(); err != nil {
		return trace.Execution{}, err
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	w := &world{
		prog:    p,
		plan:    opts.Plan,
		rng:     rand.New(rand.NewSource(seed)),
		globals: make(map[string]int64, len(p.Globals)),
		arrays:  make(map[string][]int64, len(p.Arrays)),
		owners:  make(map[string]trace.ThreadID),
		exec: trace.Execution{
			ID:   execID(p.Name, seed),
			Seed: seed,
		},
	}
	for k, v := range p.Globals {
		w.globals[k] = v
	}
	for k, v := range p.Arrays {
		w.arrays[k] = append([]int64(nil), v...)
	}
	main := w.newThread()
	w.pushCall(main, p.Entry, "")

	for steps := 0; ; steps++ {
		if w.failed {
			break
		}
		if steps >= maxSteps {
			w.fail(SigHang)
			break
		}
		runnable := w.runnable()
		if len(runnable) == 0 {
			if w.allDone() {
				break
			}
			if !w.advanceToWake() {
				w.fail(SigDeadlock)
				break
			}
			continue
		}
		th := runnable[w.rng.Intn(len(runnable))]
		w.step(th)
		w.now++
	}

	w.finalizeOpenSpans()
	if w.failed {
		w.exec.Outcome = trace.Failure
		w.exec.FailureSig = w.failSig
	} else {
		w.exec.Outcome = trace.Success
	}
	canon.Canonicalize(&w.exec)
	if opts.Final != nil {
		w.captureFinal(opts.Final)
	}
	return w.exec, nil
}

func (w *world) newThread() *thread {
	th := &thread{
		id:     trace.ThreadID(len(w.threads)),
		locals: make(map[string]int64),
	}
	w.threads = append(w.threads, th)
	return th
}

func (w *world) fail(sig string) {
	if !w.failed {
		w.failed = true
		w.failSig = sig
	}
}

func (w *world) allDone() bool {
	for _, th := range w.threads {
		if !th.done {
			return false
		}
	}
	return true
}

// advanceToWake fast-forwards the clock to the earliest sleeper's wake
// time; it returns false when no thread is sleeping (true deadlock).
func (w *world) advanceToWake() bool {
	var wake trace.Time
	found := false
	for _, th := range w.threads {
		if th.done || th.sleepUntil <= w.now {
			continue
		}
		if !found || th.sleepUntil < wake {
			wake = th.sleepUntil
			found = true
		}
	}
	if !found {
		return false
	}
	w.now = wake
	return true
}

func (w *world) runnable() []*thread {
	var out []*thread
	for _, th := range w.threads {
		if th.done {
			continue
		}
		if th.sleepUntil > w.now {
			continue
		}
		if th.waitVar != "" && w.globals[th.waitVar] != th.waitVal {
			continue
		}
		if th.joining && !w.threads[th.joinTarget].done {
			continue
		}
		if th.lockWait != "" {
			if _, held := w.owners[th.lockWait]; held {
				continue
			}
		}
		out = append(out, th)
	}
	return out
}

// pushCall enters a function on the thread, applying any injection for
// it. dst names the caller's local that receives the return value.
func (w *world) pushCall(th *thread, fn string, dst string) {
	f := w.prog.Funcs[fn]
	span := &trace.MethodCall{
		Method: fn,
		Thread: th.id,
		Start:  w.now,
		Return: trace.Value{Void: true},
	}
	fr := &frame{kind: frameCall, fn: f, span: span, dst: dst}

	inj, hasInj := w.plan[fn]
	if hasInj && !inj.Empty() {
		fr.injected = true
		span.Injected = true
		body := f.Body
		if inj.ForceReturn != nil {
			body = []Op{Return{Val: Lit(*inj.ForceReturn)}}
		} else if inj.ForceReturnVoid {
			body = []Op{ReturnVoid{}}
		}
		var pre []Op
		for _, wb := range inj.WaitBefore {
			pre = append(pre, WaitUntil{Var: wb.Var, Val: Lit(wb.Val)})
		}
		// Acquire injector locks in sorted order regardless of how the
		// plan lists them: a global acquisition order keeps simultaneous
		// multi-lock injections deadlock-free.
		locks := append([]string(nil), inj.GlobalLocks...)
		sort.Strings(locks)
		for _, mu := range locks {
			pre = append(pre, Lock{Mu: mu})
			fr.releaseLocks = append(fr.releaseLocks, mu)
		}
		if inj.DelayStart > 0 {
			pre = append(pre, Sleep{Ticks: Lit(int64(inj.DelayStart))})
		}
		fr.ops = append(pre, body...)
		fr.catchAll = inj.CatchExceptions
		fr.catchValue = inj.CatchValue
		fr.override = inj.OverrideReturn
		fr.endDelay = inj.DelayReturn
		fr.signalAfter = inj.SignalAfter
	} else {
		fr.ops = f.Body
	}
	th.frames = append(th.frames, fr)
}

// finalizeCall completes a call frame's span: applies end-of-call
// injections, records the span, releases injector locks, and fires
// signals. The caller has already popped the frame.
func (w *world) finalizeCall(th *thread, fr *frame, ret trace.Value, exc string) {
	if fr.override != nil && exc == "" {
		ret = trace.Value{Int: *fr.override}
	}
	fr.span.End = w.now
	fr.span.Return = ret
	fr.span.Exception = exc
	w.exec.Calls = append(w.exec.Calls, *fr.span)
	for _, mu := range fr.releaseLocks {
		w.release(th, mu)
	}
	for _, sig := range fr.signalAfter {
		// Injector-internal write: not a traced program access.
		w.globals[sig.Var] = sig.Val
	}
	if fr.dst != "" && !ret.Void {
		th.locals[fr.dst] = ret.Int
	}
}

func (w *world) release(th *thread, mu string) {
	if owner, ok := w.owners[mu]; ok && owner == th.id {
		delete(w.owners, mu)
		if i := sort.SearchStrings(th.held, mu); i < len(th.held) && th.held[i] == mu {
			th.held = append(th.held[:i], th.held[i+1:]...)
			th.locksetStale = true
		}
	}
}

// acquire records a taken mutex, keeping held name-sorted.
func (th *thread) acquire(mu string) {
	i := sort.SearchStrings(th.held, mu)
	th.held = append(th.held, "")
	copy(th.held[i+1:], th.held[i:])
	th.held[i] = mu
	th.locksetStale = true
}

func (th *thread) top() *frame { return th.frames[len(th.frames)-1] }

func (th *thread) popFrame() *frame {
	fr := th.top()
	th.frames = th.frames[:len(th.frames)-1]
	return fr
}

// currentSpan returns the innermost call span, to which accesses attach.
func (th *thread) currentSpan() *trace.MethodCall {
	for i := len(th.frames) - 1; i >= 0; i-- {
		if th.frames[i].kind == frameCall {
			return th.frames[i].span
		}
	}
	return nil
}

// lockset returns the held mutexes, name-sorted. The slice is shared
// by every access recorded until the held set next changes (it is
// never mutated after an access stores it).
func (th *thread) lockset() []string {
	if th.locksetStale {
		th.locksetStale = false
		if len(th.held) == 0 {
			th.locksetCache = nil
		} else {
			th.locksetCache = append([]string(nil), th.held...)
		}
	}
	return th.locksetCache
}

func (w *world) recordAccess(th *thread, obj string, kind trace.AccessKind) {
	span := th.currentSpan()
	if span == nil {
		return
	}
	span.Accesses = append(span.Accesses, trace.Access{
		Object: trace.ObjectID(obj),
		Kind:   kind,
		At:     w.now,
		Locks:  th.lockset(),
	})
}

func (w *world) eval(th *thread, e Expr) int64 {
	if e.IsVar {
		return th.locals[e.Name]
	}
	return e.Value
}

// step advances one thread by one action: an unwind step, a frame-end
// step, or one operation.
func (w *world) step(th *thread) {
	switch th.mode {
	case modeReturn:
		w.unwindReturn(th)
		return
	case modeThrow:
		w.unwindThrow(th)
		return
	}
	if len(th.frames) == 0 {
		th.done = true
		return
	}
	fr := th.top()
	if fr.pc >= len(fr.ops) {
		w.frameEnd(th, fr)
		return
	}
	w.exec1(th, fr, fr.ops[fr.pc])
}

// frameEnd handles a frame whose body ran to completion.
func (w *world) frameEnd(th *thread, fr *frame) {
	switch fr.kind {
	case frameWhile:
		a := w.eval(th, fr.cond.A)
		b := w.eval(th, fr.cond.B)
		if fr.cond.eval(a, b) {
			fr.pc = 0
			return
		}
		th.popFrame()
	case frameCall:
		// Implicit void return.
		th.mode = modeReturn
		th.retVal = trace.Value{Void: true}
	default:
		th.popFrame()
	}
}

// unwindReturn pops one frame per step until the enclosing call frame
// completes, applying any end-of-call delay injection once.
func (w *world) unwindReturn(th *thread) {
	if len(th.frames) == 0 {
		th.mode = modeRun
		th.done = true
		return
	}
	fr := th.top()
	if fr.kind != frameCall {
		th.popFrame()
		return
	}
	if fr.endDelay > 0 && !fr.delayApplied {
		fr.delayApplied = true
		th.sleepUntil = w.now + fr.endDelay
		return
	}
	th.popFrame()
	w.finalizeCall(th, fr, th.retVal, "")
	th.mode = modeRun
	if len(th.frames) == 0 {
		th.done = true
	}
}

// unwindThrow pops one frame per step until a matching Try handler or a
// catch-all injected call frame absorbs the exception; an exception that
// unwinds past the last frame crashes the program.
func (w *world) unwindThrow(th *thread) {
	if len(th.frames) == 0 {
		th.mode = modeRun
		th.done = true
		w.fail(UncaughtSig(th.exc))
		return
	}
	fr := th.top()
	switch {
	case fr.kind == frameTry && (fr.catchKind == "*" || fr.catchKind == th.exc):
		th.popFrame()
		th.frames = append(th.frames, &frame{kind: frameBlock, ops: fr.handler})
		th.exc = ""
		th.mode = modeRun
	case fr.kind == frameCall && fr.catchAll:
		// Injected try-catch: the span completes as if the body
		// succeeded, repairing the "method fails" predicate.
		th.popFrame()
		w.finalizeCall(th, fr, trace.Value{Int: fr.catchValue}, "")
		th.exc = ""
		th.mode = modeRun
		if len(th.frames) == 0 {
			th.done = true
		}
	case fr.kind == frameCall:
		th.popFrame()
		w.finalizeCall(th, fr, trace.Value{Void: true}, th.exc)
		if len(th.frames) == 0 {
			th.mode = modeRun
			th.done = true
			w.fail(UncaughtSig(th.exc))
		}
	default:
		th.popFrame()
	}
}

// exec1 executes a single operation of the current frame.
func (w *world) exec1(th *thread, fr *frame, op Op) {
	switch o := op.(type) {
	case Assign:
		th.locals[o.Dst] = w.eval(th, o.Src)
		fr.pc++
	case Arith:
		a, b := w.eval(th, o.A), w.eval(th, o.B)
		var v int64
		switch o.Op {
		case OpAdd:
			v = a + b
		case OpSub:
			v = a - b
		case OpMul:
			v = a * b
		case OpDiv:
			if b == 0 {
				fr.pc++
				w.throw(th, "DivideByZero")
				return
			}
			v = a / b
		case OpMod:
			if b == 0 {
				fr.pc++
				w.throw(th, "DivideByZero")
				return
			}
			v = a % b
		}
		th.locals[o.Dst] = v
		fr.pc++
	case ReadGlobal:
		w.recordAccess(th, o.Var, trace.Read)
		th.locals[o.Dst] = w.globals[o.Var]
		fr.pc++
	case WriteGlobal:
		w.recordAccess(th, o.Var, trace.Write)
		w.globals[o.Var] = w.eval(th, o.Src)
		fr.pc++
	case ArrayRead:
		w.recordAccess(th, o.Arr, trace.Read)
		arr := w.arrays[o.Arr]
		idx := w.eval(th, o.Index)
		fr.pc++
		if idx < 0 || idx >= int64(len(arr)) {
			w.throw(th, ExcIndexOutOfRange)
			return
		}
		th.locals[o.Dst] = arr[idx]
	case ArrayWrite:
		w.recordAccess(th, o.Arr, trace.Write)
		arr := w.arrays[o.Arr]
		idx := w.eval(th, o.Index)
		fr.pc++
		if idx < 0 || idx >= int64(len(arr)) {
			w.throw(th, ExcIndexOutOfRange)
			return
		}
		arr[idx] = w.eval(th, o.Src)
	case ArrayLen:
		w.recordAccess(th, o.Arr, trace.Read)
		th.locals[o.Dst] = int64(len(w.arrays[o.Arr]))
		fr.pc++
	case ArrayResize:
		w.recordAccess(th, o.Arr, trace.Write)
		n := w.eval(th, o.Len)
		if n < 0 {
			n = 0
		}
		old := w.arrays[o.Arr]
		fresh := make([]int64, n)
		copy(fresh, old)
		w.arrays[o.Arr] = fresh
		fr.pc++
	case Lock:
		if _, held := w.owners[o.Mu]; held {
			th.lockWait = o.Mu // re-attempted when free
			return
		}
		w.owners[o.Mu] = th.id
		th.acquire(o.Mu)
		th.lockWait = ""
		fr.pc++
	case Unlock:
		if owner, held := w.owners[o.Mu]; !held || owner != th.id {
			fr.pc++
			w.throw(th, ExcSync)
			return
		}
		w.release(th, o.Mu)
		fr.pc++
	case Sleep:
		d := w.eval(th, o.Ticks)
		if d < 0 {
			d = 0
		}
		th.sleepUntil = w.now + trace.Time(d)
		fr.pc++
	case WaitUntil:
		val := w.eval(th, o.Val)
		if w.globals[o.Var] == val {
			th.waitVar = ""
			fr.pc++
			return
		}
		th.waitVar = o.Var
		th.waitVal = val
	case Call:
		fr.pc++
		w.pushCall(th, o.Fn, o.Dst)
	case Return:
		th.mode = modeReturn
		th.retVal = trace.Value{Int: w.eval(th, o.Val)}
	case ReturnVoid:
		th.mode = modeReturn
		th.retVal = trace.Value{Void: true}
	case Throw:
		fr.pc++
		w.throw(th, o.Kind)
	case Try:
		fr.pc++
		th.frames = append(th.frames, &frame{
			kind: frameTry, ops: o.Body, catchKind: o.CatchKind, handler: o.Handler,
		})
	case If:
		fr.pc++
		a, b := w.eval(th, o.Cond.A), w.eval(th, o.Cond.B)
		if o.Cond.eval(a, b) {
			th.frames = append(th.frames, &frame{kind: frameBlock, ops: o.Then})
		} else if len(o.Else) > 0 {
			th.frames = append(th.frames, &frame{kind: frameBlock, ops: o.Else})
		}
	case While:
		a, b := w.eval(th, o.Cond.A), w.eval(th, o.Cond.B)
		if o.Cond.eval(a, b) {
			th.frames = append(th.frames, &frame{kind: frameWhile, ops: o.Body, cond: o.Cond})
			return // re-evaluated at body end; pc stays for clarity of loop frame ownership
		}
		fr.pc++
	case Spawn:
		fr.pc++
		child := w.newThread()
		if o.Dst != "" {
			th.locals[o.Dst] = int64(child.id)
		}
		w.pushCall(child, o.Fn, "")
	case Join:
		target := trace.ThreadID(w.eval(th, o.Thread))
		if target < 0 || int(target) >= len(w.threads) {
			fr.pc++
			w.throw(th, ExcSync)
			return
		}
		if w.threads[target].done {
			th.joining = false
			fr.pc++
			return
		}
		th.joining = true
		th.joinTarget = target
	case Random:
		n := w.eval(th, o.N)
		if n <= 0 {
			th.locals[o.Dst] = 0
		} else {
			th.locals[o.Dst] = w.rng.Int63n(n)
		}
		fr.pc++
	case ReadClock:
		th.locals[o.Dst] = int64(w.now)
		fr.pc++
	case Fail:
		fr.pc++
		w.fail(o.Sig)
	case Nop:
		fr.pc++
	default:
		panic(fmt.Sprintf("sim: unknown op %T", op))
	}
}

func (w *world) throw(th *thread, kind string) {
	th.mode = modeThrow
	th.exc = kind
}

// finalizeOpenSpans closes spans still open when the run stops (crash or
// hang), so the trace reflects what was executing at failure time.
func (w *world) finalizeOpenSpans() {
	for _, th := range w.threads {
		for i := len(th.frames) - 1; i >= 0; i-- {
			fr := th.frames[i]
			if fr.kind != frameCall {
				continue
			}
			fr.span.End = w.now
			if th.mode == modeThrow {
				fr.span.Exception = th.exc
			}
			w.exec.Calls = append(w.exec.Calls, *fr.span)
		}
		th.frames = nil
	}
}

// stateNames returns the program's shared-state name universe — the
// declared globals and arrays plus every name referenced by an op —
// sorted and deduplicated. It matches the compiled engine's symbol
// tables, so interpreter snapshots cover the same keys.
func (p *Program) stateNames() (globals, arrays []string) {
	gset := make(map[string]bool, len(p.Globals))
	aset := make(map[string]bool, len(p.Arrays))
	for k := range p.Globals {
		gset[k] = true
	}
	for k := range p.Arrays {
		aset[k] = true
	}
	var walk func(ops []Op)
	walk = func(ops []Op) {
		for _, op := range ops {
			switch o := op.(type) {
			case ReadGlobal:
				gset[o.Var] = true
			case WriteGlobal:
				gset[o.Var] = true
			case WaitUntil:
				gset[o.Var] = true
			case ArrayRead:
				aset[o.Arr] = true
			case ArrayWrite:
				aset[o.Arr] = true
			case ArrayLen:
				aset[o.Arr] = true
			case ArrayResize:
				aset[o.Arr] = true
			case Try:
				walk(o.Body)
				walk(o.Handler)
			case If:
				walk(o.Then)
				walk(o.Else)
			case While:
				walk(o.Body)
			}
		}
	}
	for _, f := range p.Funcs {
		if f != nil {
			walk(f.Body)
		}
	}
	globals = make([]string, 0, len(gset))
	for k := range gset {
		globals = append(globals, k)
	}
	arrays = make([]string, 0, len(aset))
	for k := range aset {
		arrays = append(arrays, k)
	}
	sort.Strings(globals)
	sort.Strings(arrays)
	return globals, arrays
}

// captureFinal snapshots the interpreter world's shared state.
func (w *world) captureFinal(fs *FinalState) {
	gnames, anames := w.prog.stateNames()
	fs.Globals = make(map[string]int64, len(gnames))
	for _, n := range gnames {
		fs.Globals[n] = w.globals[n]
	}
	fs.Arrays = make(map[string][]int64, len(anames))
	for _, n := range anames {
		fs.Arrays[n] = append([]int64(nil), w.arrays[n]...)
	}
}
