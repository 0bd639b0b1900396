package predicate

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"aid/internal/trace"
)

// Monitors answers, one intervention replay at a time, which of a
// corpus's predicates occur in it: the fact AID's interventional pruning
// needs from every replay (Definition 2). Each monitor reads only what
// its predicate reads (the replay's calls of its methods, or accesses to
// its object) plus baseline facts compiled in once, instead of the whole
// vocabulary being re-extracted over baselines and replay.
//
// EvalLog(l)[i] is the occurrence bit of the corpus's i-th predicate in
// the replay's row of Extract(baselines ++ [replay marked failed], cfg),
// with the corpus's compounds materialized there in corpus order; that
// extraction is the monitors' test reference. Marking the replay failed
// keeps an intervened run that happens to succeed out of the success
// baselines, which it would dilute. Predicates are read as extraction
// built them: one whose ID is not the one its fields give never occurs,
// and neither does a compound with a member that is not a corpus
// predicate or is a later compound.
//
// A replay is read from the simulator's logs (trace.RunLog), by the
// symbol ids of the program the monitors are compiled for: the corpus's
// method and object names are resolved to the program's function and
// object ids once, at compile time, so a watched name the program lacks
// never occurs in a replay. Baselines, and executions given to Eval,
// are interned into the same log form, so each occurrence rule is read
// one way.
//
// Compiled monitors are read-only. EvalLog is safe for concurrent use:
// each call takes a scratch of its own. Eval reuses one scratch and is
// not.
type Monitors struct {
	ids    []ID
	mons   []monitor
	margin trace.Time

	// The symbol space: the program's function and object ids, then
	// names only baselines use.
	fns  symtab[string]
	objs symtab[trace.ObjectID]
	// watchFn[f] is the slot of function id f among the methods whose
	// calls some monitor reads, and watchObj[o] the slot of object id o
	// among the objects whose accesses some monitor reads; -1, or an id
	// past the end, is unwatched.
	watchFn, watchObj []int32
	nFns, nObjs       int
	// learnsAccesses reports that some order or atomicity monitor
	// learns from the baselines' accesses.
	learnsAccesses bool

	mu    sync.Mutex
	spare []*scratch
	own   *scratch // Eval's
}

// monitor is one predicate's compiled occurrence test.
type monitor struct {
	kind  Kind
	never bool // no replay can make the predicate occur
	// ka and kb are the predicate's instances: the call's (per-call
	// kinds), the ordered pair (order), the span pair (atomicity); race
	// uses only their methods. fa and fb are their methods' function
	// ids, a and b those methods' watched slots (per-call kinds and
	// order), and o the object's watched slot (race and atomicity).
	ka, kb  instKey
	fa, fb  int32
	a, b    int32
	o       int32
	obj     trace.ObjectID
	st      *succStats // per-call: ka's success baseline, nil if it never ran
	members []int      // compound: member monitor indices

	// Compile-time baseline facts: order's access profiles of ka and kb,
	// and whether atomicity's pair was a candidate in some baseline.
	prof [2]accessProfile[int32]
	cand bool
}

// scratch is one evaluation's index of a run: its spans per watched
// method and its accesses per watched object, in time order.
type scratch struct {
	hit   []bool
	calls [][]int32
	accs  [][]atomAccess
	wins  []monWindow
	winOf []int32 // span -> its window in wins, -1 none
	locks []int32 // backs the windows' locksets

	// An interned execution: the log, each span's first access (the
	// interned log keeps a call's accesses together), and the lock
	// names' ids.
	log      trace.RunLog
	accStart []int32
	lockID   map[string]int
}

// monWindow is a race monitor's access window, with its span's function.
type monWindow struct {
	accessWindow[int32]
	fn, span int32
}

// CompileMonitors compiles one monitor per corpus predicate against the
// success baselines, resolving names to the ids of syms, the symbol
// tables of the program whose run logs EvalLog will read (zero Symbols
// for monitors that read only Executions, through Eval). Every baseline
// must be a successful execution.
func CompileMonitors(c *Corpus, syms trace.Symbols, baselines []trace.Execution, cfg Config) (*Monitors, error) {
	ms := &Monitors{
		ids:    c.IDs(),
		mons:   make([]monitor, len(c.Preds)),
		margin: cfg.DurationMargin,
		fns:    newSymtab(syms.Funcs),
		objs:   newSymtab(syms.Objects),
	}
	fnSlot, objSlot := map[int32]int{}, map[int32]int{}
	for i := range c.Preds {
		m := &ms.mons[i]
		switch m.never = !m.compile(c, i); {
		case m.never, m.kind == KindCompound, m.kind == KindFailure:
		default:
			m.fa, m.fb = ms.fns.intern(m.ka.m), ms.fns.intern(m.kb.m)
			switch m.kind {
			case KindDataRace, KindAtomicityViolation:
				m.o = int32(intern(objSlot, ms.objs.intern(m.obj)))
			default: // per-call kinds (fb is fa), order
				m.a, m.b = int32(intern(fnSlot, m.fa)), int32(intern(fnSlot, m.fb))
			}
		}
	}
	ms.watchFn, ms.nFns = ms.fns.watch(fnSlot), len(fnSlot)
	ms.watchObj, ms.nObjs = ms.objs.watch(objSlot), len(objSlot)
	for i := range ms.mons {
		m := &ms.mons[i]
		ms.learnsAccesses = ms.learnsAccesses || !m.never && (m.kind == KindOrderViolation || m.kind == KindAtomicityViolation)
	}
	sc := ms.newScratch()
	for bi := range baselines {
		e := &baselines[bi]
		if e.Failed() {
			return nil, fmt.Errorf("predicate: extractor baseline %q is a failed execution", e.ID)
		}
		ms.intern(sc, e, true)
		ms.index(sc, &sc.log)
		for i := range ms.mons {
			ms.mons[i].learn(sc, &sc.log)
		}
	}
	ms.spare = append(ms.spare, sc)
	for i := range ms.mons {
		m := &ms.mons[i]
		switch {
		case m.kind == KindOrderViolation:
			m.never = m.never || !conflicting(m.prof[0], m.prof[1]) // also with no baselines
		case m.kind == KindAtomicityViolation:
			m.never = m.never || !m.cand
		case m.st != nil && m.st.present == 0:
			m.st = nil
		}
		m.prof = [2]accessProfile[int32]{}
	}
	return ms, nil
}

// compile reads the i-th corpus predicate's fields into m and reports
// whether they name a predicate extraction can emit.
func (m *monitor) compile(c *Corpus, i int) bool {
	p := &c.Preds[i]
	m.kind, m.obj = p.Kind, p.Object
	switch {
	case p.Kind == KindFailure:
		return p.ID == FailureID
	case p.Kind == KindCompound:
		ok := len(p.Members) > 0
		for _, id := range p.Members {
			h, found := c.HandleOf(id)
			ok = ok && found && (c.Preds[h].Kind != KindCompound || int(h) < i)
			m.members = append(m.members, int(h))
		}
		return ok
	case len(p.Methods) == 0:
		return false
	}
	m.ka = instKey{p.Methods[0], p.Instance}
	m.kb.m = p.Methods[len(p.Methods)-1]
	id := string(p.ID)
	switch p.Kind {
	case KindMethodFails, KindTooSlow, KindTooFast, KindStartsLate, KindWrongReturn:
		m.st = &succStats{}
		return p.ID == ID(perCallPrefix[p.Kind]+m.ka.String())
	case KindDataRace:
		return p.ID == raceID(m.ka.m, m.kb.m, p.Object)
	case KindOrderViolation:
		m.kb.inst = lastInst(id)
		return m.ka != m.kb && p.ID == orderID(m.ka, m.kb)
	case KindAtomicityViolation:
		id = strings.TrimSuffix(id, "@"+string(p.Object))
		m.kb.inst = lastInst(id)
		a, _, _ := strings.Cut(strings.TrimPrefix(id, "atom:"+m.ka.m+"#"), ",")
		m.ka.inst, _ = strconv.Atoi(a)
		return p.ID == atomID(m.ka, m.kb, p.Object)
	}
	return false
}

// learn folds one indexed baseline into the monitor's baseline facts:
// per-call success stats; for order, ka once and ending before kb once
// starts, both leaf spans, in every baseline (extractOrder's keys and
// ordering); for atomicity, a candidate in some baseline and
// violated in none. l is an interned execution.
func (m *monitor) learn(sc *scratch, l *trace.RunLog) {
	switch {
	case m.never:
	case m.st != nil:
		for _, j := range sc.calls[m.a] {
			if s := &l.Spans[j]; s.Instance == m.ka.inst {
				m.st.add(spanFacts(s))
			}
		}
	case m.kind == KindOrderViolation:
		ca, na := findCall(l, sc.calls[m.a], m.ka.inst)
		cb, nb := findCall(l, sc.calls[m.b], m.kb.inst)
		if m.never = na != 1 || nb != 1 || l.Spans[ca].End > l.Spans[cb].Start || enclosesSpan(l, ca) || enclosesSpan(l, cb); !m.never {
			for i, j := range [2]int32{ca, cb} {
				for _, a := range l.Accesses[sc.accStart[j]:sc.accStart[j+1]] {
					m.prof[i].add(a.Obj, a.Kind == uint8(trace.Write))
				}
			}
		}
	case m.kind == KindAtomicityViolation:
		atomPairs(sc.accs[m.o], func(a, b *atomAccess, violated bool) {
			if m.isPair(l, a, b) {
				m.cand = true
				m.never = m.never || violated
			}
		})
	}
}

// IDs returns the watched predicate IDs: the corpus's, in corpus order.
func (ms *Monitors) IDs() []ID { return ms.ids }

// EvalLog runs every monitor over one run's logs and passes the
// occurrence bits, indexed like IDs, to use; the slice is valid only
// during the call. The log's ids are those of the Symbols the monitors
// were compiled with.
func (ms *Monitors) EvalLog(l *trace.RunLog, use func(hit []bool)) {
	ms.mu.Lock()
	var sc *scratch
	if n := len(ms.spare); n > 0 {
		sc, ms.spare = ms.spare[n-1], ms.spare[:n-1]
	}
	ms.mu.Unlock()
	if sc == nil {
		sc = ms.newScratch()
	}
	use(ms.eval(sc, l))
	ms.mu.Lock()
	ms.spare = append(ms.spare, sc)
	ms.mu.Unlock()
}

// Eval is EvalLog over an assembled execution, interned into the log
// form: a name the monitors have not seen is no watched method or
// object. It returns the occurrence bits, indexed like IDs, in a slice
// the next Eval reuses.
func (ms *Monitors) Eval(e *trace.Execution) []bool {
	if ms.own == nil {
		ms.own = ms.newScratch()
	}
	ms.intern(ms.own, e, false)
	return ms.eval(ms.own, &ms.own.log)
}

func (ms *Monitors) newScratch() *scratch {
	return &scratch{
		hit:   make([]bool, len(ms.mons)),
		calls: make([][]int32, ms.nFns),
		accs:  make([][]atomAccess, ms.nObjs),
	}
}

func (ms *Monitors) eval(sc *scratch, l *trace.RunLog) []bool {
	ms.index(sc, l)
	for i := range ms.mons {
		if m := &ms.mons[i]; m.kind != KindCompound {
			sc.hit[i] = !m.never && ms.occurs(sc, l, m)
		}
	}
	// Compounds last, in corpus order: a member compound is earlier.
	for i := range ms.mons {
		if m := &ms.mons[i]; m.kind == KindCompound {
			sc.hit[i] = !m.never
			for _, j := range m.members {
				sc.hit[i] = sc.hit[i] && sc.hit[j]
			}
		}
	}
	return sc.hit
}

func (ms *Monitors) occurs(sc *scratch, l *trace.RunLog, m *monitor) bool {
	switch m.kind {
	case KindFailure:
		return len(l.Spans) > 0 // F is stamped on failed runs with a call
	case KindDataRace:
		return sc.race(l, m)
	case KindOrderViolation:
		ca, _ := findCall(l, sc.calls[m.a], m.ka.inst)
		cb, _ := findCall(l, sc.calls[m.b], m.kb.inst)
		return ca >= 0 && cb >= 0 && l.Spans[ca].End > l.Spans[cb].Start
	case KindAtomicityViolation:
		found := false
		atomPairs(sc.accs[m.o], func(a, b *atomAccess, violated bool) {
			found = found || violated && m.isPair(l, a, b)
		})
		return found
	}
	for _, j := range sc.calls[m.a] {
		s := &l.Spans[j]
		if s.Instance == m.ka.inst && holds(m.kind, spanFacts(s), m.st, ms.margin, func() bool { return isThreadRoot(l, j) }) {
			return true
		}
	}
	return false
}

// index buckets l's spans by watched method and its accesses by watched
// object, each in log order, with no map probe: the ids index the watch
// tables. Each object's accesses end in the order sortAccesses leaves
// them (a simulator's log is in time order already; an interned
// execution lists each call's accesses in turn, as extraction does).
func (ms *Monitors) index(sc *scratch, l *trace.RunLog) {
	for i := range sc.calls {
		sc.calls[i] = sc.calls[i][:0]
	}
	for i := range sc.accs {
		sc.accs[i] = sc.accs[i][:0]
	}
	for j := range l.Spans {
		if f := l.Spans[j].Fn; f >= 0 && int(f) < len(ms.watchFn) && ms.watchFn[f] >= 0 {
			sc.calls[ms.watchFn[f]] = append(sc.calls[ms.watchFn[f]], int32(j))
		}
	}
	if ms.nObjs == 0 {
		return
	}
	for k := range l.Accesses {
		a := &l.Accesses[k]
		if a.Obj < 0 || int(a.Obj) >= len(ms.watchObj) || ms.watchObj[a.Obj] < 0 {
			continue
		}
		kind := trace.Read
		if a.Kind == uint8(trace.Write) {
			kind = trace.Write
		}
		w := ms.watchObj[a.Obj]
		sc.accs[w] = append(sc.accs[w], atomAccess{at: a.At, thread: l.Spans[a.Span].Thread, kind: kind, span: a.Span, ref: int32(k)})
	}
	for _, accs := range sc.accs {
		sortAccesses(accs)
	}
}

// race reports whether two calls of the race's methods have racing
// access windows on its object (extractRaces's rule): one window per
// span of either method, over its accesses to the object.
func (sc *scratch) race(l *trace.RunLog, m *monitor) bool {
	if cap(sc.winOf) < len(l.Spans) {
		sc.winOf = make([]int32, len(l.Spans))
		for i := range sc.winOf {
			sc.winOf[i] = -1
		}
	}
	sc.locks = sc.locks[:0]
	w := sc.wins[:0]
	for x := range sc.accs[m.o] {
		acc := &sc.accs[m.o][x]
		fn := l.Spans[acc.span].Fn
		if fn != m.fa && fn != m.fb {
			continue
		}
		held := l.Lockset(l.Accesses[acc.ref].Lockset)
		if wi := sc.winOf[acc.span]; wi < 0 {
			sc.winOf[acc.span] = int32(len(w))
			win := monWindow{accessWindow: accessWindow[int32]{thread: acc.thread, start: acc.at, end: acc.at}, fn: fn, span: acc.span}
			sc.locks, win.locks = cloneLocks(sc.locks, held)
			w = append(w, win)
		} else {
			win := &w[wi]
			win.start, win.end = min(win.start, acc.at), max(win.end, acc.at)
			win.locks = intersectInPlace(win.locks, held)
		}
		if acc.kind == trace.Write {
			w[sc.winOf[acc.span]].hasWrite = true
		}
	}
	for x := range w {
		sc.winOf[w[x].span] = -1
	}
	sc.wins = w
	for x := range w {
		for y := x + 1; y < len(w); y++ {
			// Pairs of m1 with m2 calls (or two calls of m1 when equal).
			if (m.fa == m.fb || w[x].fn != w[y].fn) && races(&w[x].accessWindow, &w[y].accessWindow) {
				return true
			}
		}
	}
	return false
}

// isPair reports whether a and b are accesses of the atomicity pair's
// first and second instance.
func (m *monitor) isPair(l *trace.RunLog, a, b *atomAccess) bool {
	sa, sb := &l.Spans[a.span], &l.Spans[b.span]
	return sa.Fn == m.fa && sa.Instance == m.ka.inst && sb.Fn == m.fb && sb.Instance == m.kb.inst
}

// findCall returns the last of calls (span indices) with the given
// instance (the one callRow keeps), -1 when there is none, and how many
// there are.
func findCall(l *trace.RunLog, calls []int32, inst int) (last int32, n int) {
	last = -1
	for _, j := range calls {
		if l.Spans[j].Instance == inst {
			last, n = j, n+1
		}
	}
	return last, n
}

// isThreadRoot reports whether no other same-thread span strictly
// encloses span j.
func isThreadRoot(l *trace.RunLog, j int32) bool {
	for i := range l.Spans {
		if strictlyEncloses(l, int32(i), j) {
			return false
		}
	}
	return true
}

// enclosesSpan reports whether span p strictly encloses another span.
func enclosesSpan(l *trace.RunLog, p int32) bool {
	for i := range l.Spans {
		if strictlyEncloses(l, p, int32(i)) {
			return true
		}
	}
	return false
}

// strictlyEncloses reports whether span p is another span of span c's
// thread that covers c's window and is longer than it.
func strictlyEncloses(l *trace.RunLog, p, c int32) bool {
	sp, sc := &l.Spans[p], &l.Spans[c]
	return p != c && sp.Thread == sc.Thread && sp.Start <= sc.Start && sp.End >= sc.End &&
		(sp.Start < sc.Start || sp.End > sc.End)
}

// intern writes e into sc.log in the log form: its calls in order as
// spans, each call's accesses in order after the previous call's, and
// each access's locks as a lockset of its own. Names resolve to the
// monitors' ids, and a name they lack is -1. Only whether a call threw
// is kept of its exception, and only whether an access writes of its
// kind. A baseline (at compile time) gives a name the monitors lack a
// new id instead, and keeps only what learning reads: no locksets
// (races are judged on replays alone), and accesses only when an order
// or atomicity monitor learns from them.
func (ms *Monitors) intern(sc *scratch, e *trace.Execution, baseline bool) {
	if sc.lockID == nil {
		sc.lockID = map[string]int{}
	}
	l := &sc.log
	l.Spans, l.Accesses, l.LockIDs, l.LockEnd = l.Spans[:0], l.Accesses[:0], l.LockIDs[:0], l.LockEnd[:0]
	sc.accStart = sc.accStart[:0]
	for j := range e.Calls {
		call := &e.Calls[j]
		span := trace.Span{
			Fn: ms.fns.resolve(call.Method, baseline), Exc: -1, Instance: call.Instance,
			Thread: call.Thread, Start: call.Start, End: call.End, Return: call.Return,
		}
		if call.Failed() {
			span.Exc = 0
		}
		l.Spans = append(l.Spans, span)
		sc.accStart = append(sc.accStart, int32(len(l.Accesses)))
		for k := 0; k < len(call.Accesses) && (!baseline || ms.learnsAccesses); k++ {
			acc := &call.Accesses[k]
			a := trace.SpanAccess{Span: int32(j), Obj: ms.objs.resolve(acc.Object, baseline), Lockset: -1, At: acc.At}
			if acc.Kind == trace.Write {
				a.Kind = uint8(trace.Write)
			}
			if len(acc.Locks) > 0 && !baseline {
				for _, mu := range acc.Locks {
					l.LockIDs = append(l.LockIDs, int32(intern(sc.lockID, mu)))
				}
				l.LockEnd = append(l.LockEnd, int32(len(l.LockIDs)))
				a.Lockset = int32(len(l.LockEnd) - 1)
			}
			l.Accesses = append(l.Accesses, a)
		}
	}
	sc.accStart = append(sc.accStart, int32(len(l.Accesses)))
}

// symtab numbers names: the program's ids first, in its order (a name
// it repeats keeps its first id), then names it lacks as they come.
type symtab[K comparable] struct {
	id    map[K]int32
	names []K // id -> name
}

func newSymtab[K comparable](prog []K) symtab[K] {
	t := symtab[K]{id: make(map[K]int32, len(prog)), names: append([]K(nil), prog...)}
	for i, k := range prog {
		if _, ok := t.id[k]; !ok {
			t.id[k] = int32(i)
		}
	}
	return t
}

// intern returns k's id, giving it the next one when it is new.
func (t *symtab[K]) intern(k K) int32 {
	if i, ok := t.id[k]; ok {
		return i
	}
	i := int32(len(t.names))
	t.id[k] = i
	t.names = append(t.names, k)
	return i
}

// resolve is intern when extend is set, and otherwise k's id or -1.
func (t *symtab[K]) resolve(k K, extend bool) int32 {
	if extend {
		return t.intern(k)
	}
	if i, ok := t.id[k]; ok {
		return i
	}
	return -1
}

// watch returns, for every id, the slot its name's id has in slots, or
// -1: ids that share a name share its slot.
func (t *symtab[K]) watch(slots map[int32]int) []int32 {
	w := make([]int32, len(t.names))
	for i, k := range t.names {
		w[i] = -1
		if s, ok := slots[t.id[k]]; ok {
			w[i] = int32(s)
		}
	}
	return w
}

// lastInst parses the instance number after the last '#' of an ID.
func lastInst(id string) int {
	inst, _ := strconv.Atoi(id[strings.LastIndexByte(id, '#')+1:])
	return inst
}

// intern returns k's dense slot in idx, adding the next one when k is new.
func intern[K comparable](idx map[K]int, k K) int {
	s, ok := idx[k]
	if !ok {
		s = len(idx)
		idx[k] = s
	}
	return s
}
