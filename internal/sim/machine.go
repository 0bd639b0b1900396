package sim

import (
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"aid/internal/rngfast"
	"aid/internal/trace"
)

// machine is the mutable state of one compiled execution: slot slices
// instead of string-keyed maps, a flat control stack instead of frame
// objects, and append-only span/access logs, which a caller reads as
// they are (Observe hands out a trace.RunLog over them) or keeps as an
// owned copy (RunIf). The logs are symbol-indexed (function, object,
// exception, lockset and mutex ids, no names) and hold no pointers, so
// the loop pays no GC write barriers for them, and the collector never
// scans a kept copy. Machines are pooled and reset between runs, so a
// run allocates only what escapes it (a kept copy), and a run that
// keeps nothing allocates nothing.
//
// The span log is in canonical order (start, then thread, then method;
// internal/oracle/canon holds the definition) once the run settles, so
// no reader sorts it. Every step runs at a later tick than the one
// before, opens at most one span and records at most one access, so
// spans open in start order and accesses are logged in time order with
// distinct times; the one tie is at tick 0, between the entry span and
// a span its first step opens (see settleTick0). Instance numbers come from a
// per-function counter as each call opens.

const (
	mRun uint8 = iota
	mReturn
	mThrow
)

const (
	ctlBlock uint8 = iota
	ctlWhile
	ctlTry
	ctlCall
)

// ctlRec mirrors one interpreter frame: a block/while/try marker (so
// unwinding consumes the same one-pop-per-step budget) or a call
// record (return address plus span bookkeeping).
type ctlRec struct {
	kind         uint8
	delayApplied bool
	catchKind    int32 // try: interned kind, or catchAny
	handlerPC    int32 // try: handler entry
	inj          int32 // call: index into Prepared.inj, -1 not injected
	retPC        int32 // call: caller resume pc
	dstSlot      int32 // call: caller local for the return value, -1 none
	spanIdx      int32 // call: index into machine.spans
	prevSpan     int32 // call: enclosing span to restore on pop
}

type mthread struct {
	pc    int32
	stack []ctlRec

	locals []int64

	mode    uint8
	retVoid bool
	retInt  int64
	excIdx  int32 // interned exception kind; -1 none

	sleepUntil trace.Time
	waitSlot   int32 // -1 = not waiting
	waitVal    int64
	joining    bool
	joinTarget int32
	lockWait   int32 // -1 = not blocked on a mutex

	held []int32 // mutex slots, kept rank- (i.e. name-) sorted
	// lockset is the id of the current held set in the machine's
	// lockset log (-1 none), shared by every access recorded until the
	// next lock/unlock.
	lockset      int32
	locksetStale bool

	curSpan int32 // innermost open call span, -1 none
	done    bool
}

type machine struct {
	pp *Prepared
	// fast is src when it is the bit-exact rngfast.Source: the
	// scheduler draws from it directly. rng wraps src for the stdlib
	// fallback's draws and for opRandom.
	src  rand.Source
	fast *rngfast.Source
	rng  *rand.Rand
	now  trace.Time

	threads []*mthread
	spare   []*mthread // thread objects retained across resets

	globals []int64
	arrays  [][]int64
	owners  []int32 // per mutex slot: owning thread, -1 free

	// The span and access logs: spans by function index (pp.c.funcs),
	// accesses by object index (pp.c.objects) and tagged with their
	// span.
	spans []trace.Span
	accs  []trace.SpanAccess
	// The lockset log: lockset i holds the mutex slots
	// lsSlots[lsEnd[i-1]:lsEnd[i]] (from 0 for i = 0), in rank order.
	lsSlots []int32
	lsEnd   []int32
	// view is the RunLog over the logs that Observe hands out.
	view trace.RunLog
	// calls[f] counts the spans function f has opened this run: the
	// next one's instance number.
	calls []int32

	// runnable is the scheduler's choice set, in thread-index order. It
	// is rebuilt (rebuild) only when dirty is set by an event that can
	// change it, or when the clock reaches wake, the earliest sleeper's
	// wake time at the last rebuild; in between, it is what a rebuild
	// would return.
	runnable []int32
	dirty    bool
	wake     trace.Time
	// waiters counts the threads blocked on a global (waitSlot >= 0): a
	// global write changes the runnable set only while one waits.
	waiters int
	// pending counts the scheduler draws deferred since the last draw
	// whose value was read: a draw over one runnable thread picks it
	// whatever the value, so it is taken only when a later draw reads
	// the stream.
	pending int

	failed  bool
	failSig string

	// wallDeadline, when non-zero, aborts the run with SigBudget once
	// real time passes it (set only by guarded runs with a wall budget;
	// the check in loop samples the clock every 1024 steps).
	wallDeadline time.Time
}

var machinePool = sync.Pool{New: func() any { return newMachine(rngfast.NewCached()) }}

// newMachine returns a machine whose scheduler draws from src.
func newMachine(src rand.Source) *machine {
	m := &machine{src: src, rng: rand.New(src)}
	m.fast, _ = src.(*rngfast.Source)
	return m
}

func (m *machine) reset(pp *Prepared, seed int64) {
	m.pp = pp
	m.src.Seed(seed)
	m.now = 0
	m.dirty = true
	m.waiters = 0
	m.pending = 0
	m.failed = false
	m.failSig = ""
	m.wallDeadline = time.Time{}
	m.threads = m.threads[:0]
	m.spans = m.spans[:0]
	m.accs = m.accs[:0]
	m.lsSlots = m.lsSlots[:0]
	m.lsEnd = m.lsEnd[:0]
	if cap(m.calls) < len(pp.c.funcs) {
		m.calls = make([]int32, len(pp.c.funcs))
	}
	m.calls = m.calls[:len(pp.c.funcs)]
	clear(m.calls)

	if cap(m.globals) < pp.nGlobals {
		m.globals = make([]int64, pp.nGlobals)
	}
	m.globals = m.globals[:pp.nGlobals]
	clear(m.globals[copy(m.globals, pp.c.globalInit):])

	if cap(m.arrays) < len(pp.c.arrayInit) {
		m.arrays = make([][]int64, len(pp.c.arrayInit))
	}
	m.arrays = m.arrays[:len(pp.c.arrayInit)]
	for i, init := range pp.c.arrayInit {
		if cap(m.arrays[i]) < len(init) {
			m.arrays[i] = make([]int64, len(init))
		}
		m.arrays[i] = m.arrays[i][:len(init)]
		copy(m.arrays[i], init)
	}

	if cap(m.owners) < pp.nMutexes {
		m.owners = make([]int32, pp.nMutexes)
	}
	m.owners = m.owners[:pp.nMutexes]
	for i := range m.owners {
		m.owners[i] = -1
	}
}

func (m *machine) newThread() int32 {
	id := len(m.threads)
	var th *mthread
	if id < len(m.spare) {
		th = m.spare[id]
	} else {
		th = &mthread{}
		m.spare = append(m.spare, th)
	}
	th.pc = 0
	th.stack = th.stack[:0]
	if cap(th.locals) < m.pp.c.nLocals {
		th.locals = make([]int64, m.pp.c.nLocals)
	}
	th.locals = th.locals[:m.pp.c.nLocals]
	for i := range th.locals {
		th.locals[i] = 0
	}
	th.mode = mRun
	th.retVoid = true
	th.retInt = 0
	th.excIdx = -1
	th.sleepUntil = 0
	th.waitSlot = -1
	th.waitVal = 0
	th.joining = false
	th.joinTarget = 0
	th.lockWait = -1
	th.held = th.held[:0]
	th.lockset = -1
	th.locksetStale = false
	th.curSpan = -1
	th.done = false
	m.threads = append(m.threads, th)
	return int32(id)
}

// execID names a run: one allocation for any seed.
func execID(name string, seed int64) string {
	var buf [64]byte
	b := append(buf[:0], name...)
	b = append(b, "/seed="...)
	return string(strconv.AppendInt(b, seed, 10))
}

// Verdict is what a finished run decides before any trace exists:
// whether it failed, and with which failure signature (empty for a
// success).
type Verdict struct {
	Failed bool
	Sig    string
}

// RunIf executes the prepared program once under the given seed and
// keeps the run, in log form, if keep accepts its verdict (nil keep
// accepts every run): it returns the run's header and an owned copy of
// its logs, in the ids of the program's Symbols (a plan's own mutexes
// numbered past the program's); a rejected run returns the zero LogRun
// and its verdict alone. An unplanned kept run allocates its ID and its
// log copy, whatever its length, and a rejected one nothing. A kept
// run's trace.LogRun.Execution, named by the program's Symbols for an
// unplanned run, is byte-identical to the interpreter's trace for the
// same (program, seed, plan) triple. maxSteps <= 0 means
// DefaultMaxSteps.
func (pp *Prepared) RunIf(seed int64, maxSteps int, keep func(Verdict) bool) (trace.LogRun, Verdict) {
	return pp.runIf(nil, seed, Budget{MaxSteps: maxSteps}, keep)
}

// simulate is the one compiled run path: reset m, loop, settle the
// span log's tick-0 tie, then hand the finished machine and its
// verdict to done (when non-nil) before the machine goes back to the
// pool. A nil m takes a machine from the pool and returns it
// afterwards; a caller-supplied machine (a test's, seeded from another
// source) stays the caller's. A run whose done copies nothing out
// allocates nothing. A non-zero b.WallClock arms the loop's wall-clock
// check (SigBudget). A panic escapes before the machine is pooled, so a
// possibly-corrupt machine is left to the collector.
func (pp *Prepared) simulate(m *machine, seed int64, b Budget, done func(*machine, Verdict)) Verdict {
	maxSteps := b.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	pooled := m == nil
	if pooled {
		m = machinePool.Get().(*machine)
	}
	m.reset(pp, seed)
	if b.WallClock > 0 {
		m.wallDeadline = time.Now().Add(b.WallClock)
	}
	m.pushCall(m.newThread(), pp.c.entryFn, -1, -1)
	m.loop(maxSteps)
	m.settleTick0()
	v := Verdict{Failed: m.failed, Sig: m.failSig}
	if done != nil {
		done(m, v)
	}
	m.pp = nil
	if pooled {
		machinePool.Put(m)
	}
	return v
}

// runIf is simulate that copies the logs out only if keep (nil =
// always) accepts the verdict.
func (pp *Prepared) runIf(m *machine, seed int64, b Budget, keep func(Verdict) bool) (run trace.LogRun, v Verdict) {
	v = pp.simulate(m, seed, b, func(m *machine, v Verdict) {
		if keep == nil || keep(v) {
			l := m.logs()
			run = m.logRun(seed, l.Clone())
		}
	})
	return run, v
}

// logs returns a view of the machine's logs.
func (m *machine) logs() trace.RunLog {
	return trace.RunLog{Spans: m.spans, Accesses: m.accs, LockIDs: m.lsSlots, LockEnd: m.lsEnd}
}

// runLog is the read-only view of the machine's logs that Observe hands
// out.
func (m *machine) runLog() *trace.RunLog {
	m.view = m.logs()
	return &m.view
}

// settleTick0 puts the span log's one start-time tie in canonical
// order. The entry span (thread 0) and the span its first step opens,
// on thread 0 for a call or a new thread for a spawn, both start at
// tick 0. Canonical order puts the lower (thread, method) first and, on
// a self-call, the callee: the canonical sort is stable and keeps the
// completion order, and the callee completes first. Instance numbers
// follow that order. Function indices are in name order, so comparing
// them compares names. The accesses of the two spans follow them.
func (m *machine) settleTick0() {
	if len(m.spans) < 2 {
		return
	}
	s0, s1 := &m.spans[0], &m.spans[1]
	if s1.Start != 0 || s1.Thread != 0 || s1.Fn > s0.Fn {
		return
	}
	*s0, *s1 = *s1, *s0
	if s0.Fn == s1.Fn {
		s0.Instance, s1.Instance = 0, 1
	}
	for i := range m.accs {
		if a := &m.accs[i]; a.Span < 2 {
			a.Span = 1 - a.Span
		}
	}
}

func (m *machine) loop(maxSteps int) {
	for steps := 0; ; steps++ {
		if m.failed {
			break
		}
		if steps >= maxSteps {
			m.fail(SigHang)
			break
		}
		// Wall-clock budget (Observe only): sampled every 1024 steps
		// so the common unguarded path pays one branch on a zero value.
		if steps&1023 == 1023 && !m.wallDeadline.IsZero() && time.Now().After(m.wallDeadline) {
			m.fail(SigBudget)
			break
		}
		if m.dirty || m.now >= m.wake {
			m.rebuild()
		}
		if len(m.runnable) == 0 {
			// The list is empty only right after a rebuild, so wake is
			// current: the idle advance moves the clock there.
			if m.allDone() {
				break
			}
			if m.wake == noWake {
				m.fail(SigDeadlock)
				break
			}
			m.now = m.wake
			m.dirty = true
			continue
		}
		var ti int32
		if len(m.runnable) == 1 {
			// A draw over one thread picks it whatever the value: defer it.
			m.pending++
			ti = m.runnable[0]
		} else {
			if m.pending > 0 {
				m.drawPending()
			}
			if m.fast != nil {
				ti = m.runnable[m.fast.Int31n(int32(len(m.runnable)))]
			} else {
				ti = m.runnable[m.rng.Intn(len(m.runnable))]
			}
		}
		m.step(ti)
		m.now++
	}
	m.finalizeOpenSpans()
}

// noWake is wake when no thread sleeps.
const noWake = trace.Time(math.MaxInt64)

// rebuild recomputes the runnable list from every thread, and the
// earliest wake time of a sleeping thread.
func (m *machine) rebuild() {
	m.dirty = false
	m.wake = noWake
	m.runnable = m.runnable[:0]
	for i, th := range m.threads {
		if th.done {
			continue
		}
		if th.sleepUntil > m.now {
			m.wake = min(m.wake, th.sleepUntil)
			continue
		}
		if th.waitSlot >= 0 && m.globals[th.waitSlot] != th.waitVal {
			continue
		}
		if th.joining && !m.threads[th.joinTarget].done {
			continue
		}
		if th.lockWait >= 0 && m.owners[th.lockWait] >= 0 {
			continue
		}
		m.runnable = append(m.runnable, int32(i))
	}
}

// drawPending takes the deferred draws, so that the next draw reads the
// value it would have read had every step drawn.
func (m *machine) drawPending() {
	if m.fast != nil {
		m.fast.Skip(m.pending)
	} else {
		for ; m.pending > 0; m.pending-- {
			m.src.Int63()
		}
	}
	m.pending = 0
}

func (m *machine) fail(sig string) {
	if !m.failed {
		m.failed = true
		m.failSig = sig
	}
}

func (m *machine) allDone() bool {
	for _, th := range m.threads {
		if !th.done {
			return false
		}
	}
	return true
}

// exit marks th finished: it leaves the runnable set, and its joiners
// may enter it.
func (m *machine) exit(th *mthread) {
	th.done = true
	m.dirty = true
}

func (m *machine) ev(th *mthread, e cexpr) int64 {
	if e.slot >= 0 {
		return th.locals[e.slot]
	}
	return e.lit
}

func evalCmp(op uint8, a, b int64) bool {
	switch CmpOp(op) {
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

func (m *machine) pushCall(ti, fnIdx, dstSlot, retPC int32) {
	th := m.threads[ti]
	// The records are appended zeroed and filled field by field: a
	// composite literal is built in a temporary and copied in with wide
	// loads that its narrow stores cannot forward to.
	spanIdx := int32(len(m.spans))
	m.spans = append(m.spans, trace.Span{})
	s := &m.spans[spanIdx]
	s.Fn, s.Exc = fnIdx, -1
	s.Instance = int(m.calls[fnIdx])
	s.Thread = trace.ThreadID(ti)
	s.Start = m.now
	s.Return.Void = true
	m.calls[fnIdx]++
	f := m.pp.fns[fnIdx]
	th.stack = append(th.stack, ctlRec{})
	fr := &th.stack[len(th.stack)-1]
	fr.kind = ctlCall
	fr.inj, fr.retPC, fr.dstSlot = f.inj, retPC, dstSlot
	fr.spanIdx, fr.prevSpan = spanIdx, th.curSpan
	th.curSpan = spanIdx
	th.pc = f.entry
}

func (m *machine) heldInsert(th *mthread, mu int32) {
	rank := m.pp.mutexRank
	th.held = append(th.held, mu)
	i := len(th.held) - 1
	for i > 0 && rank[th.held[i-1]] > rank[mu] {
		th.held[i] = th.held[i-1]
		i--
	}
	th.held[i] = mu
	th.locksetStale = true
}

func (m *machine) release(ti int32, mu int32) {
	if m.owners[mu] != ti {
		return
	}
	m.owners[mu] = -1
	m.dirty = true
	th := m.threads[ti]
	for i, h := range th.held {
		if h == mu {
			th.held = append(th.held[:i], th.held[i+1:]...)
			break
		}
	}
	th.locksetStale = true
}

// recordAccess logs an access to object obj (an index into
// compiled.objects) by th's innermost span.
func (m *machine) recordAccess(th *mthread, obj int32, kind trace.AccessKind) {
	if th.curSpan < 0 {
		return
	}
	if th.locksetStale {
		th.locksetStale = false
		if len(th.held) == 0 {
			th.lockset = -1
		} else {
			m.lsSlots = append(m.lsSlots, th.held...)
			m.lsEnd = append(m.lsEnd, int32(len(m.lsSlots)))
			th.lockset = int32(len(m.lsEnd) - 1)
		}
	}
	m.accs = append(m.accs, trace.SpanAccess{})
	a := &m.accs[len(m.accs)-1]
	a.Span, a.Obj, a.Lockset = th.curSpan, obj, th.lockset
	a.Kind = uint8(kind)
	a.At = m.now
}

// arrayObj is the object id of array slot a.
func (m *machine) arrayObj(a int32) int32 { return int32(len(m.pp.c.globalNames)) + a }

func (m *machine) throw(th *mthread, kindIdx int32) {
	th.mode = mThrow
	th.excIdx = kindIdx
}

func (m *machine) step(ti int32) {
	th := m.threads[ti]
	switch th.mode {
	case mReturn:
		m.unwindReturn(ti)
		return
	case mThrow:
		m.unwindThrow(ti)
		return
	}
	if len(th.stack) == 0 {
		m.exit(th)
		return
	}
	in := m.pp.instrAt(th.pc)
	switch in.op {
	case opNop:
		th.pc++
	case opAssign:
		th.locals[in.a] = m.ev(th, in.x)
		th.pc++
	case opArith:
		a, b := m.ev(th, in.x), m.ev(th, in.y)
		var v int64
		switch ArithOp(in.aux) {
		case OpAdd:
			v = a + b
		case OpSub:
			v = a - b
		case OpMul:
			v = a * b
		case OpDiv:
			if b == 0 {
				th.pc++
				m.throw(th, m.pp.c.kindDiv0)
				return
			}
			v = a / b
		case OpMod:
			if b == 0 {
				th.pc++
				m.throw(th, m.pp.c.kindDiv0)
				return
			}
			v = a % b
		}
		th.locals[in.a] = v
		th.pc++
	case opReadGlobal:
		m.recordAccess(th, in.b, trace.Read)
		th.locals[in.a] = m.globals[in.b]
		th.pc++
	case opWriteGlobal:
		m.recordAccess(th, in.b, trace.Write)
		m.globals[in.b] = m.ev(th, in.x)
		if m.waiters > 0 {
			m.dirty = true
		}
		th.pc++
	case opArrayRead:
		m.recordAccess(th, m.arrayObj(in.b), trace.Read)
		arr := m.arrays[in.b]
		idx := m.ev(th, in.x)
		th.pc++
		if idx < 0 || idx >= int64(len(arr)) {
			m.throw(th, m.pp.c.kindOOB)
			return
		}
		th.locals[in.a] = arr[idx]
	case opArrayWrite:
		m.recordAccess(th, m.arrayObj(in.b), trace.Write)
		arr := m.arrays[in.b]
		idx := m.ev(th, in.x)
		th.pc++
		if idx < 0 || idx >= int64(len(arr)) {
			m.throw(th, m.pp.c.kindOOB)
			return
		}
		arr[idx] = m.ev(th, in.y)
	case opArrayLen:
		m.recordAccess(th, m.arrayObj(in.b), trace.Read)
		th.locals[in.a] = int64(len(m.arrays[in.b]))
		th.pc++
	case opArrayResize:
		m.recordAccess(th, m.arrayObj(in.b), trace.Write)
		n := m.ev(th, in.x)
		if n < 0 {
			n = 0
		}
		fresh := make([]int64, n)
		copy(fresh, m.arrays[in.b])
		m.arrays[in.b] = fresh
		th.pc++
	case opLock:
		m.dirty = true // either this thread blocks, or the mutex's waiters do
		if m.owners[in.b] >= 0 {
			th.lockWait = in.b // re-attempted when free
			return
		}
		m.owners[in.b] = ti
		m.heldInsert(th, in.b)
		th.lockWait = -1
		th.pc = in.c
	case opUnlock:
		if m.owners[in.b] != ti {
			th.pc++
			m.throw(th, m.pp.c.kindSync)
			return
		}
		m.release(ti, in.b)
		th.pc++
	case opSleep:
		d := m.ev(th, in.x)
		if d < 0 {
			d = 0
		}
		th.sleepUntil = m.now + trace.Time(d)
		m.dirty = true
		th.pc = in.c
	case opWaitUntil:
		v := m.ev(th, in.x)
		if m.globals[in.b] == v {
			if th.waitSlot >= 0 {
				th.waitSlot = -1
				m.waiters--
			}
			th.pc = in.c
			return
		}
		if th.waitSlot < 0 {
			m.waiters++
		}
		th.waitSlot = in.b
		th.waitVal = v
		m.dirty = true
	case opCall:
		th.pc++
		m.pushCall(ti, in.b, in.a, th.pc)
	case opReturn:
		th.mode = mReturn
		th.retVoid = false
		th.retInt = m.ev(th, in.x)
	case opReturnVoid:
		th.mode = mReturn
		th.retVoid = true
	case opThrow:
		th.pc++
		m.throw(th, in.b)
	case opTryEnter:
		th.pc++
		th.stack = append(th.stack, ctlRec{kind: ctlTry, catchKind: in.c, handlerPC: in.b})
	case opIf:
		if evalCmp(in.aux, m.ev(th, in.x), m.ev(th, in.y)) {
			th.stack = append(th.stack, ctlRec{kind: ctlBlock})
			th.pc++
		} else if in.b >= 0 {
			th.stack = append(th.stack, ctlRec{kind: ctlBlock})
			th.pc = in.b
		} else {
			th.pc = in.c
		}
	case opEndBlock:
		th.stack = th.stack[:len(th.stack)-1]
		th.pc = in.b
	case opWhileEnter:
		if evalCmp(in.aux, m.ev(th, in.x), m.ev(th, in.y)) {
			th.stack = append(th.stack, ctlRec{kind: ctlWhile})
			th.pc++
		} else {
			th.pc = in.b
		}
	case opWhileCheck:
		if evalCmp(in.aux, m.ev(th, in.x), m.ev(th, in.y)) {
			th.pc = in.b
		} else {
			th.stack = th.stack[:len(th.stack)-1]
			th.pc++ // falls through to the exit-pad opNop
		}
	case opSpawn:
		child := m.newThread()
		th = m.threads[ti] // newThread only appends, but re-fetch for clarity
		th.pc++
		if in.a >= 0 {
			th.locals[in.a] = int64(child)
		}
		m.pushCall(child, in.b, -1, -1)
		m.dirty = true
	case opJoin:
		target := m.ev(th, in.x)
		if target < 0 || target >= int64(len(m.threads)) {
			th.pc++
			m.throw(th, m.pp.c.kindSync)
			return
		}
		if m.threads[target].done {
			th.joining = false
			th.pc++
			return
		}
		th.joining = true
		th.joinTarget = int32(target)
		m.dirty = true
	case opRandom:
		n := m.ev(th, in.x)
		if n <= 0 {
			th.locals[in.a] = 0
		} else {
			if m.pending > 0 {
				m.drawPending()
			}
			th.locals[in.a] = m.rng.Int63n(n)
		}
		th.pc++
	case opReadClock:
		th.locals[in.a] = int64(m.now)
		th.pc++
	case opFail:
		th.pc++
		m.fail(m.pp.c.strs[in.b])
	case opPanic:
		panic(m.pp.c.strs[in.b])
	}
}

// finalizeCall completes a call record's span, releasing injector locks
// and firing injector signals; the caller has already popped the record.
func (m *machine) finalizeCall(ti int32, fr *ctlRec, retVoid bool, retInt int64, excIdx int32) {
	if retVoid {
		retInt = 0
	}
	th := m.threads[ti]
	if fr.inj >= 0 {
		meta := &m.pp.inj[fr.inj]
		if meta.override != nil && excIdx < 0 {
			retVoid, retInt = false, *meta.override
		}
		for _, mu := range meta.release {
			m.release(ti, mu)
		}
		for _, sg := range meta.signals {
			// Injector-internal write: not a traced program access.
			m.globals[sg.slot] = sg.val
			if m.waiters > 0 {
				m.dirty = true
			}
		}
	}
	span := &m.spans[fr.spanIdx]
	span.End = m.now
	span.Return = trace.Value{Void: retVoid, Int: retInt}
	span.Exc = excIdx
	if fr.dstSlot >= 0 && !retVoid {
		th.locals[fr.dstSlot] = retInt
	}
	th.curSpan = fr.prevSpan
}

func (m *machine) unwindReturn(ti int32) {
	th := m.threads[ti]
	if len(th.stack) == 0 {
		th.mode = mRun
		m.exit(th)
		return
	}
	fr := &th.stack[len(th.stack)-1]
	if fr.kind != ctlCall {
		th.stack = th.stack[:len(th.stack)-1]
		return
	}
	if fr.inj >= 0 && !fr.delayApplied {
		if d := m.pp.inj[fr.inj].endDelay; d > 0 {
			fr.delayApplied = true
			th.sleepUntil = m.now + d
			m.dirty = true
			return
		}
	}
	rec := *fr
	th.stack = th.stack[:len(th.stack)-1]
	m.finalizeCall(ti, &rec, th.retVoid, th.retInt, -1)
	th.mode = mRun
	th.pc = rec.retPC
	if len(th.stack) == 0 {
		m.exit(th)
	}
}

func (m *machine) unwindThrow(ti int32) {
	th := m.threads[ti]
	if len(th.stack) == 0 {
		th.mode = mRun
		m.exit(th)
		m.fail(m.pp.c.uncaughtSig[th.excIdx])
		return
	}
	fr := th.stack[len(th.stack)-1]
	switch {
	case fr.kind == ctlTry && (fr.catchKind == catchAny || fr.catchKind == th.excIdx):
		// Swap the try record for the handler's block record and enter
		// the handler, all in this one unwind step.
		th.stack[len(th.stack)-1] = ctlRec{kind: ctlBlock}
		th.pc = fr.handlerPC
		th.excIdx = -1
		th.mode = mRun
	case fr.kind == ctlCall && fr.inj >= 0 && m.pp.inj[fr.inj].catchAll:
		// Injected try-catch: the span completes as if the body
		// succeeded, repairing the "method fails" predicate.
		th.stack = th.stack[:len(th.stack)-1]
		m.finalizeCall(ti, &fr, false, m.pp.inj[fr.inj].catchValue, -1)
		th.excIdx = -1
		th.mode = mRun
		th.pc = fr.retPC
		if len(th.stack) == 0 {
			m.exit(th)
		}
	case fr.kind == ctlCall:
		th.stack = th.stack[:len(th.stack)-1]
		m.finalizeCall(ti, &fr, true, 0, th.excIdx)
		th.pc = fr.retPC
		if len(th.stack) == 0 {
			th.mode = mRun
			m.exit(th)
			m.fail(m.pp.c.uncaughtSig[th.excIdx])
		}
	default:
		th.stack = th.stack[:len(th.stack)-1]
	}
}

// finalizeOpenSpans closes spans still open when the run stops (crash
// or hang), innermost first per thread, matching the interpreter.
func (m *machine) finalizeOpenSpans() {
	for _, th := range m.threads {
		for i := len(th.stack) - 1; i >= 0; i-- {
			fr := &th.stack[i]
			if fr.kind != ctlCall {
				continue
			}
			span := &m.spans[fr.spanIdx]
			span.End = m.now
			if th.mode == mThrow {
				span.Exc = th.excIdx
			}
		}
		th.stack = th.stack[:0]
	}
}

// logRun returns the run's header over the logs l, with the spans of
// the plan's injected methods listed.
func (m *machine) logRun(seed int64, l trace.RunLog) trace.LogRun {
	r := trace.LogRun{ID: execID(m.pp.c.name, seed), Seed: seed, Log: l}
	if m.failed {
		r.Outcome, r.FailureSig = trace.Failure, m.failSig
	}
	if len(m.pp.inj) > 0 {
		for i := range m.spans {
			if m.pp.fns[m.spans[i].Fn].inj >= 0 {
				r.Injected = append(r.Injected, int32(i))
			}
		}
	}
	return r
}
