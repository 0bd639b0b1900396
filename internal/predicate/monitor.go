package predicate

import (
	"fmt"
	"strconv"
	"strings"

	"aid/internal/trace"
)

// Monitors answers, one intervention replay at a time, which of a
// corpus's predicates occur in it: the fact AID's interventional pruning
// needs from every replay (Definition 2). Each monitor reads only what
// its predicate reads (the replay's calls of its methods, or accesses to
// its object) plus baseline facts compiled in once, instead of the whole
// vocabulary being re-extracted over baselines and replay.
//
// Eval(e)[i] is the occurrence bit of the corpus's i-th predicate in e's
// row of Extract(baselines ++ [e marked failed], cfg), with the corpus's
// compounds materialized there in corpus order; that extraction is the
// monitors' test reference. Marking the replay failed keeps an
// intervened run that happens to succeed out of the success baselines,
// which it would dilute. Predicates are read as extraction built them:
// one whose ID is not the one its fields give never occurs, and neither
// does a compound with a member that is not a corpus predicate or is a
// later compound.
//
// Monitors are not safe for concurrent use: Eval reuses its scratch.
type Monitors struct {
	ids    []ID
	mons   []monitor
	hit    []bool
	margin trace.Time

	// Index of the execution under evaluation: its calls per watched
	// method, and its sorted access sequence per atomicity object.
	methods map[string]int
	calls   [][]*trace.MethodCall
	objs    map[trace.ObjectID]int
	accs    [][]atomAccess
	wins    []accessWindow
	locks   []string // backs the windows' locksets
}

// monitor is one predicate's compiled occurrence test.
type monitor struct {
	kind  Kind
	never bool // no replay can make the predicate occur
	// ka and kb are the predicate's instances: the call's (per-call
	// kinds), the ordered pair (order), the span pair (atomicity); race
	// uses only their methods. a and b are their method slots.
	ka, kb  instKey
	a, b    int
	obj     trace.ObjectID
	o       int        // atomicity: object slot
	st      *succStats // per-call: ka's success baseline, nil if it never ran
	members []int      // compound: member monitor indices

	// Compile-time baseline facts: order's access profiles of ka and kb,
	// and whether atomicity's pair was a candidate in some baseline.
	prof [2]accessProfile[trace.ObjectID]
	cand bool
}

// CompileMonitors compiles one monitor per corpus predicate against the
// success baselines. Every baseline must be a successful execution.
func CompileMonitors(c *Corpus, baselines []trace.Execution, cfg Config) (*Monitors, error) {
	ms := &Monitors{
		ids:     c.IDs(),
		mons:    make([]monitor, len(c.Preds)),
		hit:     make([]bool, len(c.Preds)),
		margin:  cfg.DurationMargin,
		methods: make(map[string]int),
		objs:    make(map[trace.ObjectID]int),
	}
	for i := range c.Preds {
		m := &ms.mons[i]
		switch m.never = !m.compile(c, i); {
		case m.never, m.kind == KindCompound, m.kind == KindFailure:
		case m.kind == KindAtomicityViolation:
			m.o = intern(ms.objs, m.obj)
		default: // per-call kinds (kb.m is ka.m), race, order
			m.a, m.b = intern(ms.methods, m.ka.m), intern(ms.methods, m.kb.m)
		}
	}
	ms.calls = make([][]*trace.MethodCall, len(ms.methods))
	ms.accs = make([][]atomAccess, len(ms.objs))
	for bi := range baselines {
		e := &baselines[bi]
		if e.Failed() {
			return nil, fmt.Errorf("predicate: extractor baseline %q is a failed execution", e.ID)
		}
		ms.index(e)
		for i := range ms.mons {
			ms.mons[i].learn(ms, e)
		}
	}
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
		m.prof = [2]accessProfile[trace.ObjectID]{}
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
// violated in none.
func (m *monitor) learn(ms *Monitors, e *trace.Execution) {
	switch {
	case m.never:
	case m.st != nil:
		for _, call := range ms.calls[m.a] {
			if call.Instance == m.ka.inst {
				m.st.add(call)
			}
		}
	case m.kind == KindOrderViolation:
		ca, na := findCall(ms.calls[m.a], m.ka.inst)
		cb, nb := findCall(ms.calls[m.b], m.kb.inst)
		if m.never = na != 1 || nb != 1 || ca.End > cb.Start || enclosesSpan(e, ca) || enclosesSpan(e, cb); !m.never {
			for i, call := range [2]*trace.MethodCall{ca, cb} {
				for _, a := range call.Accesses {
					m.prof[i].add(a.Object, a.Kind == trace.Write)
				}
			}
		}
	case m.kind == KindAtomicityViolation:
		atomPairs(ms.accs[m.o], func(a, b *atomAccess, violated bool) {
			if isInst(a.call, m.ka) && isInst(b.call, m.kb) {
				m.cand = true
				m.never = m.never || violated
			}
		})
	}
}

// IDs returns the watched predicate IDs: the corpus's, in corpus order.
func (ms *Monitors) IDs() []ID { return ms.ids }

// Eval runs every monitor over one replay and returns the occurrence
// bits, indexed like IDs. The slice is reused by the next Eval.
func (ms *Monitors) Eval(e *trace.Execution) []bool {
	ms.index(e)
	for i := range ms.mons {
		if m := &ms.mons[i]; m.kind != KindCompound {
			ms.hit[i] = !m.never && ms.occurs(e, m)
		}
	}
	// Compounds last, in corpus order: a member compound is earlier.
	for i := range ms.mons {
		if m := &ms.mons[i]; m.kind == KindCompound {
			ms.hit[i] = !m.never
			for _, j := range m.members {
				ms.hit[i] = ms.hit[i] && ms.hit[j]
			}
		}
	}
	return ms.hit
}

func (ms *Monitors) occurs(e *trace.Execution, m *monitor) bool {
	switch m.kind {
	case KindFailure:
		return len(e.Calls) > 0 // F is stamped on failed runs with a call
	case KindDataRace:
		return ms.race(m)
	case KindOrderViolation:
		ca, _ := findCall(ms.calls[m.a], m.ka.inst)
		cb, _ := findCall(ms.calls[m.b], m.kb.inst)
		return ca != nil && cb != nil && ca.End > cb.Start
	case KindAtomicityViolation:
		found := false
		atomPairs(ms.accs[m.o], func(a, b *atomAccess, violated bool) {
			found = found || violated && isInst(a.call, m.ka) && isInst(b.call, m.kb)
		})
		return found
	}
	for _, call := range ms.calls[m.a] {
		if call.Instance == m.ka.inst && holds(m.kind, call, m.st, ms.margin, func() bool { return isThreadRoot(e, call) }) {
			return true
		}
	}
	return false
}

// index records e's calls of every watched method and, per atomicity
// object, e's accesses to it in the order sortAccesses leaves them.
func (ms *Monitors) index(e *trace.Execution) {
	for i := range ms.calls {
		ms.calls[i] = ms.calls[i][:0]
	}
	for i := range ms.accs {
		ms.accs[i] = ms.accs[i][:0]
	}
	for j := range e.Calls {
		call := &e.Calls[j]
		if s, ok := ms.methods[call.Method]; ok {
			ms.calls[s] = append(ms.calls[s], call)
		}
		for a := 0; a < len(call.Accesses) && len(ms.objs) > 0; a++ {
			acc := &call.Accesses[a]
			if s, ok := ms.objs[acc.Object]; ok {
				ms.accs[s] = append(ms.accs[s], atomAccess{call: call, at: acc.At, kind: acc.Kind})
			}
		}
	}
	for _, accs := range ms.accs {
		sortAccesses(accs)
	}
}

// race reports whether two calls of the race's methods have racing
// access windows on its object (extractRaces's rule).
func (ms *Monitors) race(m *monitor) bool {
	ms.locks = ms.locks[:0]
	w := ms.wins[:0]
	for _, calls := range [][]*trace.MethodCall{ms.calls[m.a], ms.calls[m.b]} {
		for _, call := range calls {
			if win, ok := windowOn(call, m.obj, &ms.locks); ok {
				w = append(w, win)
			}
		}
		if m.b == m.a {
			break
		}
	}
	ms.wins = w
	for x := range w {
		for y := x + 1; y < len(w); y++ {
			// Pairs of m1 with m2 calls (or two calls of m1 when equal).
			if (m.a == m.b || w[x].call.Method != w[y].call.Method) && races(&w[x], &w[y]) {
				return true
			}
		}
	}
	return false
}

// findCall returns the last of calls with the given instance (the one
// callRow keeps) and how many there are.
func findCall(calls []*trace.MethodCall, inst int) (last *trace.MethodCall, n int) {
	for _, c := range calls {
		if c.Instance == inst {
			last, n = c, n+1
		}
	}
	return last, n
}

func isInst(c *trace.MethodCall, k instKey) bool { return c.Instance == k.inst && c.Method == k.m }

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
