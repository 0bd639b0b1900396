package predicate

import (
	"fmt"
	"slices"
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
// symbol ids of the program the monitors are compiled for, and the
// baselines are read from logs too (the corpus's own, Corpus.Logs), by
// the ids of their LogSet. The corpus's method and object names are
// resolved once, at compile time, to watched slots, and each symbol
// table maps its ids to those slots: a watched name the program lacks
// never occurs in a replay.
//
// Compiled monitors are read-only. EvalLog is safe for concurrent use:
// each call takes a scratch of its own.
type Monitors struct {
	ids    []ID
	mons   []monitor
	margin trace.Time

	// watchFn[f] is the slot of the program's function id f among the
	// methods whose calls some monitor reads, and watchObj[o] the slot of
	// its object id o among the objects whose accesses some monitor
	// reads; -1 is unwatched, and ids that share a name share a slot.
	watchFn, watchObj []int32
	nFns, nObjs       int

	mu    sync.Mutex
	spare []*scratch
}

// monitor is one predicate's compiled occurrence test.
type monitor struct {
	kind  Kind
	never bool // no replay can make the predicate occur
	// ka and kb are the predicate's instances: the call's (per-call
	// kinds), the ordered pair (order), the span pair (atomicity); race
	// uses only their methods. a and b are those methods' watched slots,
	// and o the object's (race and atomicity).
	ka, kb  instKey
	a, b    int32
	o       int32
	obj     trace.ObjectID
	st      *succStats // per-call: ka's success baseline, nil if it never ran
	members []int      // compound: member monitor indices

	// Compile-time baseline facts: order's access profiles of ka and kb,
	// and whether atomicity's pair was a candidate in some baseline.
	prof [2]accessProfile
	cand bool
}

// scratch is one evaluation's index of a run: its spans per watched
// method and its accesses per watched object, in time order.
type scratch struct {
	hit   []bool
	calls [][]int32
	accs  [][]atomAccess
	// fnSlot is the watch table of the indexed log's function ids.
	fnSlot []int32
	wins   []monWindow
	winOf  []int32 // span -> its window in wins, -1 none
	locks  []int32 // backs the windows' locksets
	// A baseline's accesses grouped by span (groupBySpan).
	accStart, accOrder []int32
}

// monWindow is a race monitor's access window, with its span's method
// slot.
type monWindow struct {
	accessWindow
	fn, span int32
}

// CompileMonitors compiles one monitor per corpus predicate against the
// success baselines, resolving names to the ids of syms, the symbol
// tables of the program whose run logs EvalLog will read. Every
// baseline must be a successful run.
func CompileMonitors(c *Corpus, syms trace.Symbols, baselines *trace.LogSet, cfg Config) (*Monitors, error) {
	ms := &Monitors{
		ids:    c.IDs(),
		mons:   make([]monitor, len(c.Preds)),
		margin: cfg.DurationMargin,
	}
	fnSlot, objSlot := map[string]int32{}, map[trace.ObjectID]int32{}
	learnsOrder, learnsAtomicity := false, false
	for i := range c.Preds {
		m := &ms.mons[i]
		switch m.never = !m.compile(c, i); {
		case m.never, m.kind == KindCompound, m.kind == KindFailure:
		default:
			m.a, m.b = slotOf(fnSlot, m.ka.m), slotOf(fnSlot, m.kb.m)
			switch m.kind {
			case KindDataRace, KindAtomicityViolation:
				m.o = slotOf(objSlot, m.obj)
			}
			learnsOrder = learnsOrder || m.kind == KindOrderViolation
			learnsAtomicity = learnsAtomicity || m.kind == KindAtomicityViolation
		}
	}
	ms.nFns, ms.nObjs = len(fnSlot), len(objSlot)
	ms.watchFn, ms.watchObj = watchTable(syms.Funcs, fnSlot), watchTable(syms.Objects, objSlot)
	// Baselines are indexed by their own symbols; only atomicity learns
	// from the per-object sequences, and only order from the accesses by
	// span.
	bFn := watchTable(baselines.Syms.Funcs, fnSlot)
	var bObj, rank []int32
	if learnsAtomicity {
		bObj = watchTable(baselines.Syms.Objects, objSlot)
	}
	if learnsOrder {
		rank, _ = objectRanks(baselines.Syms.Objects)
	}
	sc := ms.newScratch()
	for bi := range baselines.Runs {
		r := &baselines.Runs[bi]
		if r.Failed() {
			return nil, fmt.Errorf("predicate: extractor baseline %q is a failed execution", r.ID)
		}
		l := &r.Log
		ms.index(sc, l, bFn, bObj)
		if learnsOrder {
			sc.accStart = slices.Grow(sc.accStart[:0], len(l.Spans)+1)[:len(l.Spans)+1]
			sc.accOrder = slices.Grow(sc.accOrder[:0], len(l.Accesses))[:len(l.Accesses)]
			groupBySpan(l, sc.accStart, sc.accOrder)
		}
		for i := range ms.mons {
			ms.mons[i].learn(sc, l, rank)
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
		m.prof = [2]accessProfile{}
	}
	return ms, nil
}

// slotOf returns name's slot in slots, giving it the next one when it is
// new.
func slotOf[K comparable](slots map[K]int32, name K) int32 {
	s, ok := slots[name]
	if !ok {
		s = int32(len(slots))
		slots[name] = s
	}
	return s
}

// watchTable maps each id of a symbol table to its name's slot, or -1.
func watchTable[K comparable](names []K, slots map[K]int32) []int32 {
	w := make([]int32, len(names))
	for i, n := range names {
		w[i] = -1
		if s, ok := slots[n]; ok {
			w[i] = s
		}
	}
	return w
}

// watched returns id's slot in the watch table w, or -1.
func watched(w []int32, id int32) int32 {
	if id < 0 || int(id) >= len(w) {
		return -1
	}
	return w[id]
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
// ordering), with the accesses of both (by the object name ranks rank);
// for atomicity, a candidate in some baseline and violated in none.
func (m *monitor) learn(sc *scratch, l *trace.RunLog, rank []int32) {
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
				for _, k := range sc.accOrder[sc.accStart[j]:sc.accStart[j+1]] {
					a := &l.Accesses[k]
					m.prof[i].add(rank[a.Obj], a.Kind == uint8(trace.Write))
				}
			}
		}
	case m.kind == KindAtomicityViolation:
		atomPairs(sc.accs[m.o], func(a, b *atomAccess, violated bool) {
			if m.isPair(sc, l, a, b) {
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

func (ms *Monitors) newScratch() *scratch {
	return &scratch{
		hit:   make([]bool, len(ms.mons)),
		calls: make([][]int32, ms.nFns),
		accs:  make([][]atomAccess, ms.nObjs),
	}
}

func (ms *Monitors) eval(sc *scratch, l *trace.RunLog) []bool {
	ms.index(sc, l, ms.watchFn, ms.watchObj)
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
			found = found || violated && m.isPair(sc, l, a, b)
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
// object, each in log order, with no map probe: fnW and objW, the watch
// tables of l's symbols, map its ids to slots. Each object's accesses
// end in the order sortAccesses leaves them (a simulator's log is in
// time order already; an interned log lists each call's accesses in
// turn, as extraction reads them).
func (ms *Monitors) index(sc *scratch, l *trace.RunLog, fnW, objW []int32) {
	sc.fnSlot = fnW
	for i := range sc.calls {
		sc.calls[i] = sc.calls[i][:0]
	}
	for i := range sc.accs {
		sc.accs[i] = sc.accs[i][:0]
	}
	for j := range l.Spans {
		if s := watched(fnW, l.Spans[j].Fn); s >= 0 {
			sc.calls[s] = append(sc.calls[s], int32(j))
		}
	}
	if ms.nObjs == 0 || objW == nil {
		return
	}
	for k := range l.Accesses {
		a := &l.Accesses[k]
		w := watched(objW, a.Obj)
		if w < 0 {
			continue
		}
		sc.accs[w] = append(sc.accs[w], atomAccess{at: a.At, thread: l.Spans[a.Span].Thread, kind: trace.AccessKind(a.Kind), span: a.Span, ref: int32(k)})
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
		fn := watched(sc.fnSlot, l.Spans[acc.span].Fn)
		if fn != m.a && fn != m.b {
			continue
		}
		held := l.Lockset(l.Accesses[acc.ref].Lockset)
		if wi := sc.winOf[acc.span]; wi < 0 {
			sc.winOf[acc.span] = int32(len(w))
			w = append(w, monWindow{fn: fn, span: acc.span})
			sc.locks = w[len(w)-1].open(sc.locks, held, acc.thread, acc.at)
		} else {
			w[wi].extend(sc.locks, held, acc.at)
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
			if (m.a == m.b || w[x].fn != w[y].fn) && races(&w[x].accessWindow, &w[y].accessWindow, sc.locks) {
				return true
			}
		}
	}
	return false
}

// isPair reports whether a and b are accesses of the atomicity pair's
// first and second instance.
func (m *monitor) isPair(sc *scratch, l *trace.RunLog, a, b *atomAccess) bool {
	sa, sb := &l.Spans[a.span], &l.Spans[b.span]
	return watched(sc.fnSlot, sa.Fn) == m.a && sa.Instance == m.ka.inst && watched(sc.fnSlot, sb.Fn) == m.b && sb.Instance == m.kb.inst
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

// lastInst parses the instance number after the last '#' of an ID.
func lastInst(id string) int {
	inst, _ := strconv.Atoi(id[strings.LastIndexByte(id, '#')+1:])
	return inst
}
