package predicate

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"aid/internal/trace"
)

// Config controls predicate extraction.
type Config struct {
	// SideEffectFree reports whether a method can safely have its return
	// value altered or its exceptions absorbed (§3.3). Nil means no
	// method is safe for those interventions; timing and locking
	// interventions are always safe.
	SideEffectFree func(method string) bool
	// DurationMargin is the significance threshold for duration
	// predicates: a call is "too slow" only when it exceeds the success
	// maximum by more than the margin (and "too fast" symmetrically).
	// It suppresses tick-level artifacts of branch shape, akin to the
	// statistical significance filters of SD tools.
	DurationMargin trace.Time
	// PureMethods reports whether a method is provably pure (the effect
	// analysis's pruning bar): predicates anchored entirely in pure
	// methods cannot host a root cause and are dropped before ranking
	// (Corpus.DropPure). Nil disables effect-guided pruning.
	PureMethods func(method string) bool
	// keepUnobserved, when set, retains predicates with no occurrences
	// in any row. By default Extract compacts them away with
	// Corpus.DropUnobserved; only tests that inspect the raw vocabulary
	// set this.
	keepUnobserved bool
}

func (c Config) sideEffectFree(m string) bool {
	return c.SideEffectFree != nil && c.SideEffectFree(m)
}

// instKey identifies a dynamic method instance across executions.
type instKey struct {
	m    string
	inst int
}

func (k instKey) String() string { return k.m + "#" + strconv.Itoa(k.inst) }

// perCallKinds are the per-call predicate kinds in emission order, and
// perCallPrefix their ID prefixes: an ID is the prefix followed by the
// instance key.
var (
	perCallKinds  = [...]Kind{KindMethodFails, KindTooSlow, KindTooFast, KindStartsLate, KindWrongReturn}
	perCallPrefix = map[Kind]string{
		KindMethodFails: "fails:", KindTooSlow: "slow:", KindTooFast: "fast:",
		KindStartsLate: "late:", KindWrongReturn: "ret:",
	}
)

// succStats aggregates per-instance behaviour over successful runs.
type succStats struct {
	present       int
	minDur        trace.Time
	maxDur        trace.Time
	maxStart      trace.Time
	ret           trace.Value
	retSet        bool
	retConsistent bool
}

// Extract evaluates the full predicate vocabulary over the trace corpus
// and returns the predicate logs. It mirrors the paper's offline
// predicate-extraction phase: success baselines are learned from the
// successful executions, then every execution is scanned for
// deviations.
//
// The corpus is interned once (corpusIndex), and every pass indexes
// slices by the interned ids. internal/oracle/extractref keeps the
// map-keyed extractor this replaced as the test reference.
//
// Intervention replays are not re-extracted: Monitors answers, per
// replay, the occurrence bits this function would give a corpus's
// predicates over the baselines plus that replay marked failed.
func Extract(s *trace.Set, cfg Config) *Corpus {
	c := NewCorpus()
	for i := range s.Executions {
		e := &s.Executions[i]
		c.AddRow(e.ID, e.Failed())
	}
	x := newCorpusIndex(s.Executions)
	c.AddPred(FailurePredicate())
	stampFailures(s.Executions, c)
	x.extractPerCall(c, cfg)
	x.extractRaces(c)
	x.extractOrder(c)
	x.extractAtomicity(c)

	c.DropPure(cfg.PureMethods)
	if !cfg.keepUnobserved {
		c.DropUnobserved()
	}
	return c
}

// corpusIndex is the interned corpus the extraction passes read. Every
// (method, instance) key, method and object has a dense id, numbered in
// sorted order (keys by method name, then instance), so comparing ids
// compares names. The tables are sized by the corpus's calls, accesses
// and distinct keys; nothing is indexed by a trace-supplied number,
// since aid serve extracts corpora that arrive over the network.
type corpusIndex struct {
	execs   []trace.Execution
	keys    []instKey
	method  []int32  // key -> method id
	methods []string // method id -> name
	objs    []trace.ObjectID
	// Execution i's calls, and then their accesses in order, have the
	// flat numbers from callOff[i] and accOff[i] on.
	callOff, accOff []int
	callKey         []int32 // flat call -> key
	accObj          []int32 // flat access -> object
	// root[f] reports that no other span of flat call f's thread
	// strictly encloses it.
	root []bool
	// stats[k] is key k's success baseline (present 0: it never ran in
	// a success), and nonLeaf[k] reports that some success call of k
	// strictly encloses another span of its thread.
	stats   []succStats
	nonLeaf []bool
	succs   int
}

// newCorpusIndex interns execs, with one map probe per call for its key
// and one per access for its object, renumbers the ids in sorted order,
// folds the success baselines, and sweeps each execution's spans once.
func newCorpusIndex(execs []trace.Execution) *corpusIndex {
	x := &corpusIndex{execs: execs, callOff: make([]int, len(execs)), accOff: make([]int, len(execs))}
	nCalls, nAccs := 0, 0
	for i := range execs {
		nCalls += len(execs[i].Calls)
		for j := range execs[i].Calls {
			nAccs += len(execs[i].Calls[j].Accesses)
		}
	}
	x.callKey = make([]int32, nCalls)
	x.accObj = make([]int32, nAccs)
	keyIdx := make(map[instKey]int)
	objIdx := make(map[trace.ObjectID]int)
	f, a := 0, 0
	for i := range execs {
		x.callOff[i], x.accOff[i] = f, a
		for j := range execs[i].Calls {
			call := &execs[i].Calls[j]
			x.callKey[f] = int32(intern(keyIdx, instKey{call.Method, call.Instance}))
			for n := range call.Accesses {
				x.accObj[a] = int32(intern(objIdx, call.Accesses[n].Object))
				a++
			}
			f++
		}
	}

	x.keys = renumber(keyIdx, x.callKey, func(p, q instKey) int {
		return cmp.Or(cmp.Compare(p.m, q.m), cmp.Compare(p.inst, q.inst))
	})
	x.objs = renumber(objIdx, x.accObj, cmp.Compare[trace.ObjectID])
	x.method = make([]int32, len(x.keys))
	for k, key := range x.keys {
		if k == 0 || key.m != x.keys[k-1].m {
			x.methods = append(x.methods, key.m)
		}
		x.method[k] = int32(len(x.methods) - 1)
	}

	x.stats = make([]succStats, len(x.keys))
	for i := range execs {
		if execs[i].Failed() {
			continue
		}
		x.succs++
		for j := range execs[i].Calls {
			x.stats[x.callKey[x.callOff[i]+j]].add(&execs[i].Calls[j])
		}
	}
	x.sweep()
	return x
}

// renumber gives the keys of idx, interned in first-seen order, new ids
// in compare order, rewrites ids to them, and returns the keys by new
// id.
func renumber[K comparable](idx map[K]int, ids []int32, compare func(a, b K) int) []K {
	names := make([]K, 0, len(idx))
	for k := range idx {
		names = append(names, k)
	}
	slices.SortFunc(names, compare)
	rank := make([]int32, len(names))
	for id, k := range names {
		rank[idx[k]] = int32(id)
	}
	for i, id := range ids {
		ids[i] = rank[id]
	}
	return names
}

// baseline returns key k's success baseline, or nil when it never ran
// in a success.
func (x *corpusIndex) baseline(k int32) *succStats {
	if x.stats[k].present == 0 {
		return nil
	}
	return &x.stats[k]
}

// sweep fills root for every call and nonLeaf from the successes, with
// one sort per execution in place of a scan per span pair. With spans
// sorted by thread, start, then end descending, a span's strict
// enclosers are the earlier spans of its thread that have another
// window and end at or after it does, and the spans it strictly
// encloses are the later ones that end at or before it does. That
// holds for any windows, nested or not.
func (x *corpusIndex) sweep() {
	x.root = make([]bool, len(x.callKey))
	x.nonLeaf = make([]bool, len(x.keys))
	var order []int32
	for i := range x.execs {
		calls := x.execs[i].Calls
		base := x.callOff[i]
		order = order[:0]
		for j := range calls {
			order = append(order, int32(j))
		}
		slices.SortFunc(order, func(a, b int32) int {
			p, q := &calls[a], &calls[b]
			switch {
			case p.Thread != q.Thread:
				return cmp.Compare(p.Thread, q.Thread)
			case p.Start != q.Start:
				return cmp.Compare(p.Start, q.Start)
			}
			return cmp.Compare(q.End, p.End)
		})
		// same reports whether order[a] and order[b] share a thread and
		// a window, so that neither strictly encloses the other.
		same := func(a, b int) bool {
			p, q := &calls[order[a]], &calls[order[b]]
			return p.Thread == q.Thread && p.Start == q.Start && p.End == q.End
		}
		for lo := 0; lo < len(order); {
			hi := lo + 1
			for hi < len(order) && calls[order[hi]].Thread == calls[order[lo]].Thread {
				hi++
			}
			// Forward over the thread's windows [lo, hi): a span is a
			// root when every earlier window ends before it does.
			var maxEnd trace.Time
			for g := lo; g < hi; {
				h := g + 1
				for h < hi && same(g, h) {
					h++
				}
				end := calls[order[g]].End
				root := g == lo || maxEnd < end
				for k := g; k < h; k++ {
					x.root[base+int(order[k])] = root
				}
				if g == lo || end > maxEnd {
					maxEnd = end
				}
				g = h
			}
			if !x.execs[i].Failed() {
				// Backward: a span is a non-leaf when some later window
				// ends at or before it does.
				var minEnd trace.Time
				for g := hi; g > lo; {
					h := g - 1
					for h > lo && same(h-1, g-1) {
						h--
					}
					end := calls[order[h]].End
					if g < hi && minEnd <= end {
						for k := h; k < g; k++ {
							x.nonLeaf[x.callKey[base+int(order[k])]] = true
						}
					}
					if g == hi || end < minEnd {
						minEnd = end
					}
					g = h
				}
			}
			lo = hi
		}
	}
}

// stampFailures records the failure predicate F in every failed
// execution's log; execs[i] is corpus row i.
func stampFailures(execs []trace.Execution, c *Corpus) {
	fh, _ := c.HandleOf(FailureID)
	for i := range execs {
		e := &execs[i]
		if !e.Failed() || len(e.Calls) == 0 {
			continue
		}
		var end trace.Time
		for j := range e.Calls {
			if e.Calls[j].End > end {
				end = e.Calls[j].End
			}
		}
		// F is stamped strictly after the last event: the failure
		// manifests once everything observed has happened, so any
		// predicate completing by the crash can temporally precede F.
		c.SetOcc(i, fh, Occurrence{Start: end, End: end + 1, Thread: NoThread})
	}
}

// add folds one success-run call of the instance into the baseline.
func (st *succStats) add(call *trace.MethodCall) {
	if st.present == 0 {
		st.minDur, st.maxDur, st.retConsistent = call.Duration(), call.Duration(), true
	}
	st.present++
	if d := call.Duration(); d < st.minDur {
		st.minDur = d
	} else if d > st.maxDur {
		st.maxDur = d
	}
	if call.Start > st.maxStart {
		st.maxStart = call.Start
	}
	if call.Failed() {
		// A throwing success-run call has no usable return value.
		st.retConsistent = false
		return
	}
	if !st.retSet {
		st.ret = call.Return
		st.retSet = true
	} else if !st.ret.Equal(call.Return) {
		st.retConsistent = false
	}
}

// holds reports whether the per-call predicate of kind k holds for
// call, given the instance's success baseline st (nil when the instance
// never ran in a success); root reports whether no other span of the
// call's thread strictly encloses it, and is asked only of a late call.
// It is the one definition that extraction and the replay monitors
// share.
func holds(k Kind, call *trace.MethodCall, st *succStats, margin trace.Time, root func() bool) bool {
	if k == KindMethodFails {
		return call.Failed()
	}
	if st == nil {
		return false
	}
	switch k {
	case KindTooSlow:
		return call.Duration() > st.maxDur+margin
	case KindTooFast:
		return !call.Failed() && call.Duration() < st.minDur-margin
	case KindStartsLate:
		// Lateness of a nested call is subsumed by its enclosing span's
		// behaviour; only thread-root spans carry a meaningful
		// scheduling-lateness signal (§4 Case 2: the caller's late start
		// causes the callee's).
		return call.Start > st.maxStart+margin && root()
	case KindWrongReturn:
		_, ok := st.usableRet()
		return ok && !call.Failed() && !call.Return.Void && !call.Return.Equal(st.ret)
	}
	return false
}

// extractPerCall emits the per-call predicates (perCallKinds) for
// every method instance, resolving each (key, kind)'s handle once.
func (x *corpusIndex) extractPerCall(c *Corpus, cfg Config) {
	nk := len(perCallKinds)
	handles := make([]Handle, len(x.keys)*nk)
	for i := range handles {
		handles[i] = -1
	}
	for i := range x.execs {
		e := &x.execs[i]
		for j := range e.Calls {
			call := &e.Calls[j]
			f := x.callOff[i] + j
			k := x.callKey[f]
			st := x.baseline(k)
			root := func() bool { return x.root[f] }
			for ki, kind := range perCallKinds {
				if !holds(kind, call, st, cfg.DurationMargin, root) {
					continue
				}
				h := &handles[int(k)*nk+ki]
				if *h < 0 {
					id := ID(perCallPrefix[kind] + x.keys[k].String())
					var ok bool
					if *h, ok = c.HandleOf(id); !ok {
						*h = c.AddPred(perCallPredicate(id, kind, x.keys[k], call, st, cfg))
					}
				}
				c.SetOcc(i, *h, Occurrence{Start: call.Start, End: call.End, Thread: call.Thread})
			}
		}
	}
}

// perCallPredicate builds the per-call predicate of the given kind for
// instance k, first seen holding at call; st is k's success baseline
// (nil only for a method that fails).
func perCallPredicate(id ID, kind Kind, k instKey, call *trace.MethodCall, st *succStats, cfg Config) Predicate {
	p := Predicate{ID: id, Kind: kind, Methods: []string{k.m}, Instance: k.inst, Stamp: ByEnd}
	safe := cfg.sideEffectFree(k.m)
	switch kind {
	case KindMethodFails:
		p.Repair = Intervention{Kind: IvCatchException, Methods: []string{k.m}, Safe: safe}
		if st != nil {
			p.Repair.Value, _ = st.usableRet()
		}
		p.Desc = fmt.Sprintf("method %s (call #%d) throws %s", k.m, k.inst, call.Exception)
	case KindTooSlow:
		p.Repair = Intervention{Kind: IvPrematureReturn, Methods: []string{k.m}, Safe: safe}
		var ok bool
		p.Repair.Value, ok = st.usableRet()
		p.Repair.Void = !ok
		p.Desc = fmt.Sprintf("method %s (call #%d) runs too slow (> %d ticks)", k.m, k.inst, st.maxDur)
	case KindTooFast:
		p.Repair = Intervention{Kind: IvDelayReturn, Methods: []string{k.m}, Delay: int64(st.minDur), Safe: true}
		p.Desc = fmt.Sprintf("method %s (call #%d) runs too fast (< %d ticks)", k.m, k.inst, st.minDur)
	case KindStartsLate:
		// Lateness has no local repair (§4 Case 2): the cause lies
		// upstream, so the predicate is diagnostic only.
		p.Stamp, p.Repair = ByStart, Intervention{Kind: IvNone}
		p.Desc = fmt.Sprintf("method %s (call #%d) starts later than expected (> tick %d)", k.m, k.inst, st.maxStart)
	case KindWrongReturn:
		p.Repair = Intervention{Kind: IvOverrideReturn, Methods: []string{k.m}, Value: st.ret.Int, Safe: safe}
		p.Desc = fmt.Sprintf("method %s (call #%d) returns incorrect value (correct: %s)", k.m, k.inst, st.ret)
	}
	return p
}

// usableRet returns the instance's success return value when every
// success returned the same non-void value.
func (st *succStats) usableRet() (int64, bool) {
	if st.retSet && st.retConsistent && !st.ret.Void {
		return st.ret.Int, true
	}
	return 0, false
}

// accessWindow summarizes one span's accesses to one object: the time
// interval from its first to its last access, whether any access is a
// write, and the set of locks held by every access (a race needs one
// unprotected conflicting pair, so only locks held across the whole
// window rule a pair out).
type accessWindow struct {
	call     *trace.MethodCall
	start    trace.Time
	end      trace.Time
	hasWrite bool
	locks    []string // intersection of the window's access locksets
}

// raceWindow is extractRaces's access window, with its object and its
// call's method.
type raceWindow struct {
	accessWindow
	m, o int32
}

// raceEntry is the handle of the race between methods m1 <= m2 on the
// object whose list holds it.
type raceEntry struct {
	m1, m2 int32
	h      Handle
}

// extractRaces emits data-race predicates using access-window
// interleaving: two method invocations on different threads race on X
// when their access windows on X strictly interleave (each window's
// first access happens before the other's last access), at least one
// access is a write, and no common lock protects both windows. Strict
// interleaving captures the harmful schedules — e.g. two read-modify-
// write sections losing an update — while mere span-envelope overlap
// with disjoint access windows does not race.
//
// Windows are bucketed by object, and each object keeps its races'
// handles sorted by method pair. The bucket backings and the buffer
// behind the per-window locksets are reused across executions (the
// locks buffer is rewound for each one: a window never outlives its
// execution's pass).
func (x *corpusIndex) extractRaces(c *Corpus) {
	winOf := make([]int32, len(x.objs)) // object -> the current call's window, -1 none
	for o := range winOf {
		winOf[o] = -1
	}
	buckets := make([][]raceWindow, len(x.objs))
	handles := make([][]raceEntry, len(x.objs))
	var wins []raceWindow
	var objs []int32
	var locks []string
	for row := range x.execs {
		e := &x.execs[row]
		objs = objs[:0]
		locks = locks[:0]
		n := x.accOff[row]
		for j := range e.Calls {
			call := &e.Calls[j]
			m := x.method[x.callKey[x.callOff[row]+j]]
			wins = wins[:0]
			for a := range call.Accesses {
				acc := &call.Accesses[a]
				o := x.accObj[n]
				n++
				wi := winOf[o]
				if wi < 0 {
					wi = int32(len(wins))
					winOf[o] = wi
					var held []string
					locks, held = cloneLocks(locks, acc.Locks)
					wins = append(wins, raceWindow{
						accessWindow: accessWindow{call: call, start: acc.At, end: acc.At, locks: held},
						m:            m,
						o:            o,
					})
				} else {
					w := &wins[wi]
					w.start = min(w.start, acc.At)
					w.end = max(w.end, acc.At)
					w.locks = intersectInPlace(w.locks, acc.Locks)
				}
				if acc.Kind == trace.Write {
					wins[wi].hasWrite = true
				}
			}
			for _, w := range wins {
				winOf[w.o] = -1
				if len(buckets[w.o]) == 0 {
					objs = append(objs, w.o)
				}
				buckets[w.o] = append(buckets[w.o], w)
			}
		}
		slices.Sort(objs)
		for _, o := range objs {
			ws := buckets[o]
			for p := 0; p < len(ws); p++ {
				for q := p + 1; q < len(ws); q++ {
					a, b := &ws[p], &ws[q]
					if !races(&a.accessWindow, &b.accessWindow) {
						continue
					}
					h := x.raceHandle(c, handles, min(a.m, b.m), max(a.m, b.m), o)
					start, end := max(a.start, b.start), min(a.end, b.end)
					// Merge with an earlier pair's window in this row
					// (an O(1) read: the column's last write is this row).
					if prev, ok := c.OccAt(row, h); ok {
						start, end = min(start, prev.Start), max(end, prev.End)
					}
					c.SetOcc(row, h, Occurrence{Start: start, End: end, Thread: NoThread})
				}
			}
			// Truncate the bucket for reuse by the next execution.
			buckets[o] = ws[:0]
		}
	}
}

// raceHandle returns the handle of the race between methods m1 <= m2 on
// object o, registering the predicate when it is new.
func (x *corpusIndex) raceHandle(c *Corpus, handles [][]raceEntry, m1, m2, o int32) Handle {
	list := handles[o]
	i, found := slices.BinarySearchFunc(list, raceEntry{m1: m1, m2: m2}, func(p, q raceEntry) int {
		return cmp.Or(cmp.Compare(p.m1, q.m1), cmp.Compare(p.m2, q.m2))
	})
	if found {
		return list[i].h
	}
	n1, n2, obj := x.methods[m1], x.methods[m2], x.objs[o]
	id := raceID(n1, n2, obj)
	h, ok := c.HandleOf(id)
	if !ok {
		h = c.AddPred(Predicate{
			ID: id, Kind: KindDataRace,
			Methods: dedupe(n1, n2), Object: obj, Stamp: ByStart,
			Repair: Intervention{
				Kind: IvLockMethods, Methods: dedupe(n1, n2), Safe: true,
			},
			Desc: "data race between " + n1 + " and " + n2 + " on " + string(obj),
		})
	}
	handles[o] = slices.Insert(list, i, raceEntry{m1, m2, h})
	return h
}

// races reports whether two calls' access windows on one object race:
// different threads, at least one write, strictly interleaved windows
// (each starts before the other ends), and no lock held across both.
func races(a, b *accessWindow) bool {
	return a.call.Thread != b.call.Thread && (a.hasWrite || b.hasWrite) &&
		a.start < b.end && b.start < a.end && !sharesLock(a.locks, b.locks)
}

// windowOn is call's access window on obj, as extractRaces builds it;
// ok is false when the call does not touch obj. The lockset is carved
// from *buf.
func windowOn(call *trace.MethodCall, obj trace.ObjectID, buf *[]string) (w accessWindow, ok bool) {
	for i := range call.Accesses {
		acc := &call.Accesses[i]
		if acc.Object != obj {
			continue
		}
		if !ok {
			w, ok = accessWindow{call: call, start: acc.At, end: acc.At}, true
			*buf, w.locks = cloneLocks(*buf, acc.Locks)
		} else {
			w.start, w.end = min(w.start, acc.At), max(w.end, acc.At)
			w.locks = intersectInPlace(w.locks, acc.Locks)
		}
		w.hasWrite = w.hasWrite || acc.Kind == trace.Write
	}
	return w, ok
}

// cloneLocks copies locks onto the end of buf and returns the grown
// buffer and the copy. The copy's capacity ends at its length, so
// intersectInPlace never writes into a neighbouring window's lockset.
func cloneLocks(buf, locks []string) (grown, clone []string) {
	n := len(buf)
	buf = append(buf, locks...)
	return buf, buf[n:len(buf):len(buf)]
}

// intersectInPlace filters a down to the elements also present in b,
// reusing a's backing (a is always a cloneLocks copy here).
func intersectInPlace(a, b []string) []string {
	n := 0
	for _, x := range a {
		for _, y := range b {
			if x == y {
				a[n] = x
				n++
				break
			}
		}
	}
	return a[:n]
}

func sharesLock(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// raceID names the data race between methods m1 <= m2 on obj.
func raceID(m1, m2 string, obj trace.ObjectID) ID {
	return ID("race:" + m1 + "|" + m2 + "@" + string(obj))
}

func dedupe(ms ...string) []string {
	var out []string
	for _, m := range ms {
		dup := false
		for _, o := range out {
			if o == m {
				dup = true
			}
		}
		if !dup {
			out = append(out, m)
		}
	}
	return out
}

// extractOrder finds instance pairs (A, B) that are strictly ordered
// A-then-B in every successful execution and emits the predicate "B
// starts before A ends" wherever the order flips.
//
// Two restrictions keep the predicate set meaningful:
//
//   - Only leaf spans (instances that enclose no other same-thread span
//     in any successful run) participate: a non-leaf span's ordering
//     against another method is subsumed by its innermost child's, and
//     emitting both would create several overlapping order predicates
//     whose repairs are interchangeable — violating the
//     single-causal-path assumption AID relies on (§5.1).
//   - The pair must conflict on a shared object (both access some X,
//     at least one writing): without a data dependency, the relative
//     order of two methods cannot affect the outcome.
func (x *corpusIndex) extractOrder(c *Corpus) {
	if x.succs == 0 {
		return
	}
	// The baseline keys, in key order: present in every success and a
	// leaf in all of them.
	slot := make([]int32, len(x.keys))
	var keys []int32
	for k := range x.keys {
		slot[k] = -1
		if x.stats[k].present == x.succs && !x.nonLeaf[k] {
			slot[k] = int32(len(keys))
			keys = append(keys, int32(k))
		}
	}
	nk := len(keys)
	if nk == 0 {
		return
	}
	// Execution i's last call of baseline key s is its Calls[rows[i*nk+s]]
	// (-1: none).
	rows := make([]int32, len(x.execs)*nk)
	for i := range rows {
		rows[i] = -1
	}
	for i := range x.execs {
		for j := range x.execs[i].Calls {
			if s := slot[x.callKey[x.callOff[i]+j]]; s >= 0 {
				rows[i*nk+int(s)] = int32(j)
			}
		}
	}
	call := func(i, s int) *trace.MethodCall {
		if j := rows[i*nk+s]; j >= 0 {
			return &x.execs[i].Calls[j]
		}
		return nil
	}
	// ordered[a*nk+b] reports that a ends before b starts in every
	// success; profiles union each key's accesses over the successes.
	ordered := make([]bool, nk*nk)
	for a := range nk {
		for b := range nk {
			ordered[a*nk+b] = a != b
		}
	}
	profiles := make([]accessProfile[int32], nk)
	// A success's baseline calls' starts and ends, by slot.
	start := make([]trace.Time, nk)
	end := make([]trace.Time, nk)
	for i := range x.execs {
		if x.execs[i].Failed() {
			continue
		}
		off := x.accOff[i]
		for j, c := range x.execs[i].Calls {
			if s := slot[x.callKey[x.callOff[i]+j]]; s >= 0 && rows[i*nk+int(s)] == int32(j) {
				for k, acc := range c.Accesses {
					profiles[s].add(x.accObj[off+k], acc.Kind == trace.Write)
				}
			}
			off += len(c.Accesses)
		}
		for s := range nk {
			if c := call(i, s); c != nil {
				start[s], end[s] = c.Start, c.End
				continue
			}
			// A key missing from a success is ordered against none.
			for t := range nk {
				ordered[s*nk+t], ordered[t*nk+s] = false, false
			}
		}
		for a := range nk {
			row := ordered[a*nk : (a+1)*nk]
			for b, sb := range start {
				if end[a] > sb {
					row[b] = false
				}
			}
		}
	}
	for a := range nk {
		for b := range nk {
			if !ordered[a*nk+b] || !conflicting(profiles[a], profiles[b]) {
				continue
			}
			h := Handle(-1)
			for i := range x.execs {
				ca, cb := call(i, a), call(i, b)
				if ca == nil || cb == nil || ca.End <= cb.Start {
					continue
				}
				if h < 0 {
					h = c.AddPred(orderPredicate(x.keys[keys[a]], x.keys[keys[b]]))
				}
				c.SetOcc(i, h, Occurrence{Start: cb.Start, End: ca.End, Thread: NoThread})
			}
		}
	}
}

// orderID names the order violation "kb starts before ka ends".
func orderID(ka, kb instKey) ID { return ID("order:" + ka.String() + "<" + kb.String()) }

// orderPredicate builds the order-violation predicate "kb starts before
// ka ends" for a baseline-ordered pair.
func orderPredicate(ka, kb instKey) Predicate {
	return Predicate{
		ID:      orderID(ka, kb),
		Kind:    KindOrderViolation,
		Methods: dedupe(ka.m, kb.m), Instance: ka.inst, Stamp: ByStart,
		Repair: Intervention{
			Kind: IvEnforceOrder, Methods: []string{ka.m, kb.m}, Safe: true,
		},
		Desc: fmt.Sprintf("%s starts before %s ends (expected order: %s then %s)",
			kb, ka, ka, kb),
	}
}

// accessProfile records the objects an instance touches, sorted, each
// with whether any of its accesses writes. O is an object name for the
// monitors and an interned object id for extraction.
type accessProfile[O cmp.Ordered] []profileEntry[O]

type profileEntry[O cmp.Ordered] struct {
	obj   O
	write bool
}

// add records one access to obj.
func (p *accessProfile[O]) add(obj O, write bool) {
	i, found := slices.BinarySearchFunc(*p, obj, func(e profileEntry[O], o O) int { return cmp.Compare(e.obj, o) })
	if !found {
		*p = slices.Insert(*p, i, profileEntry[O]{obj: obj})
	}
	(*p)[i].write = (*p)[i].write || write
}

// conflicting reports whether two profiles touch a common object with
// at least one write.
func conflicting[O cmp.Ordered](a, b accessProfile[O]) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch d := cmp.Compare(a[i].obj, b[j].obj); {
		case d < 0:
			i++
		case d > 0:
			j++
		case a[i].write || b[j].write:
			return true
		default:
			i, j = i+1, j+1
		}
	}
	return false
}

// Atomicity violations (extractAtomicity) find same-thread span pairs
// (A, B) both accessing an object X with no intervening remote write in
// any successful run, and emit a predicate where a remote write slips
// between them. The repair serializes the pair's common parent with the
// writer; without a common parent the violation cannot be safely
// repaired at method granularity and the intervention is marked unsafe.

// atomAccess is one object access in an execution's per-object access
// sequence. key is the call's interned key; the monitors, which match
// calls by method and instance, leave it 0.
type atomAccess struct {
	call *trace.MethodCall
	at   trace.Time
	kind trace.AccessKind
	key  int32
}

// atomCandidate is a candidate pair (A, B) on object o, held on the
// list of A's key: B's key, whether a remote write slipped between the
// pair in some success, and the predicate's handle once emitted (-1
// before).
type atomCandidate struct {
	b, o     int32
	violated bool
	h        Handle
}

// extractAtomicity collects the candidate pairs from the successes
// onto per-key lists sorted by (B, object), then emits wherever a
// remote write slips between a candidate pair in a failed execution. A
// successful execution never emits: a violation there makes the pair
// violated in a success.
func (x *corpusIndex) extractAtomicity(c *Corpus) {
	byObj := make([][]atomAccess, len(x.objs))
	cands := make([][]atomCandidate, len(x.keys))
	var objs []int32
	find := func(a, b *atomAccess, o int32) (int, bool) {
		return slices.BinarySearchFunc(cands[a.key], atomCandidate{b: b.key, o: o}, func(p, q atomCandidate) int {
			return cmp.Or(cmp.Compare(p.b, q.b), cmp.Compare(p.o, q.o))
		})
	}
	// scan reports the candidate pairs of execution row, object by
	// object in name order.
	scan := func(row int, record func(a, b *atomAccess, o int32, violated bool)) {
		e := &x.execs[row]
		objs = objs[:0]
		n := x.accOff[row]
		for j := range e.Calls {
			call := &e.Calls[j]
			key := x.callKey[x.callOff[row]+j]
			for k := range call.Accesses {
				o := x.accObj[n]
				n++
				if len(byObj[o]) == 0 {
					objs = append(objs, o)
				}
				acc := &call.Accesses[k]
				byObj[o] = append(byObj[o], atomAccess{call: call, at: acc.At, kind: acc.Kind, key: key})
			}
		}
		slices.Sort(objs)
		for _, o := range objs {
			accs := byObj[o]
			sortAccesses(accs)
			atomPairs(accs, func(a, b *atomAccess, violated bool) { record(a, b, o, violated) })
			byObj[o] = accs[:0]
		}
	}
	for row := range x.execs {
		if x.execs[row].Failed() {
			continue
		}
		scan(row, func(a, b *atomAccess, o int32, violated bool) {
			i, found := find(a, b, o)
			if !found {
				cands[a.key] = slices.Insert(cands[a.key], i, atomCandidate{b: b.key, o: o, h: -1})
			}
			cands[a.key][i].violated = cands[a.key][i].violated || violated
		})
	}
	for row := range x.execs {
		if !x.execs[row].Failed() {
			continue
		}
		scan(row, func(a, b *atomAccess, o int32, violated bool) {
			if !violated {
				return
			}
			i, found := find(a, b, o)
			if !found || cands[a.key][i].violated {
				return
			}
			cd := &cands[a.key][i]
			if cd.h < 0 {
				cd.h = x.atomHandle(c, &x.execs[row], x.keys[a.key], x.keys[b.key], x.objs[o])
			}
			c.SetOcc(row, cd.h, Occurrence{Start: a.at, End: b.at, Thread: NoThread})
		})
	}
}

// atomHandle returns the handle of the atomicity violation of ka then
// kb on obj, registering the predicate when it is new; its repair locks
// the pair's common parent in e.
func (x *corpusIndex) atomHandle(c *Corpus, e *trace.Execution, ka, kb instKey, obj trace.ObjectID) Handle {
	id := atomID(ka, kb, obj)
	if h, ok := c.HandleOf(id); ok {
		return h
	}
	repair := Intervention{Kind: IvNone}
	if parent := commonParent(e, ka, kb); parent != "" {
		repair = Intervention{
			Kind:    IvLockMethods,
			Methods: []string{parent},
			Safe:    true,
		}
	}
	return c.AddPred(Predicate{
		ID: id, Kind: KindAtomicityViolation,
		Methods: dedupe(ka.m, kb.m), Object: obj, Stamp: ByStart,
		Repair: repair,
		Desc: fmt.Sprintf("atomicity of %s then %s on %s violated by a remote write",
			ka, kb, obj),
	})
}

// sortAccesses orders one object's accesses by time. The sort is
// unstable: equal-time accesses end in an order fixed by the input
// order, which every caller builds the same way (calls in trace order,
// each call's accesses in order), so extraction and the monitors see
// the same sequence.
func sortAccesses(accs []atomAccess) {
	slices.SortFunc(accs, func(x, y atomAccess) int { return cmp.Compare(x.at, y.at) })
}

// atomPairs reports, for each access in one object's sorted sequence,
// the pair it forms with the next access by another span of the same
// thread, and whether a remote write slips between the two.
func atomPairs(accs []atomAccess, record func(a, b *atomAccess, violated bool)) {
	for x := 0; x < len(accs); x++ {
		for y := x + 1; y < len(accs); y++ {
			a, b := &accs[x], &accs[y]
			if a.call.Thread != b.call.Thread || a.call == b.call {
				continue
			}
			violated := false
			for z := x + 1; z < y; z++ {
				if w := &accs[z]; w.call.Thread != a.call.Thread && w.kind == trace.Write {
					violated = true
					break
				}
			}
			record(a, b, violated)
			break // only the next foreign-span access matters
		}
	}
}

// atomID names the atomicity violation of ka then kb on obj.
func atomID(ka, kb instKey, obj trace.ObjectID) ID {
	return ID("atom:" + ka.String() + "," + kb.String() + "@" + string(obj))
}

// isThreadRoot reports whether no other same-thread span strictly
// encloses the call.
func isThreadRoot(e *trace.Execution, call *trace.MethodCall) bool {
	for i := range e.Calls {
		if strictlyEncloses(&e.Calls[i], call) {
			return false
		}
	}
	return true
}

// enclosesSpan reports whether p strictly encloses another span of e.
func enclosesSpan(e *trace.Execution, p *trace.MethodCall) bool {
	for i := range e.Calls {
		if strictlyEncloses(p, &e.Calls[i]) {
			return true
		}
	}
	return false
}

// strictlyEncloses reports whether p is another span of c's thread that
// covers c's window and is longer than it.
func strictlyEncloses(p, c *trace.MethodCall) bool {
	return p != c && p.Thread == c.Thread && p.Start <= c.Start && p.End >= c.End &&
		(p.Start < c.Start || p.End > c.End)
}

// commonParent returns the innermost span of the pair's thread that
// encloses both instances, or "".
func commonParent(e *trace.Execution, a, b instKey) string {
	ca, cb := e.Call(a.m, a.inst), e.Call(b.m, b.inst)
	if ca == nil || cb == nil || ca.Thread != cb.Thread {
		return ""
	}
	var best *trace.MethodCall
	for i := range e.Calls {
		p := &e.Calls[i]
		if p.Thread != ca.Thread || p == ca || p == cb {
			continue
		}
		if p.Start <= ca.Start && p.End >= cb.End {
			if best == nil || p.Start > best.Start {
				best = p
			}
		}
	}
	if best == nil {
		return ""
	}
	return best.Method
}
