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

// instKey names a dynamic method instance across executions.
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
// and returns the predicate logs: it interns the set into log form
// (trace.Intern) and runs ExtractLogs. internal/oracle/extractref keeps
// the map-keyed extractor over Executions as the test reference.
func Extract(s *trace.Set, cfg Config) *Corpus { return ExtractLogs(trace.Intern(s), cfg) }

// ExtractLogs mirrors the paper's offline predicate-extraction phase
// over a corpus in log form: success baselines are learned from the
// successful runs, then every run is scanned for deviations. Every pass
// indexes slices by the logs' symbol ids; no name is looked up per call
// or access. The corpus keeps ls (Corpus.Logs): the replay monitors
// learn their baselines from its successful runs.
//
// Intervention replays are not re-extracted: Monitors answers, per
// replay, the occurrence bits this function would give a corpus's
// predicates over the baselines plus that replay marked failed.
func ExtractLogs(ls *trace.LogSet, cfg Config) *Corpus {
	c := NewCorpus()
	c.logs = ls
	for i := range ls.Runs {
		r := &ls.Runs[i]
		c.AddRow(r.ID, r.Failed())
	}
	x := newCorpusIndex(ls)
	c.AddPred(FailurePredicate())
	stampFailures(ls.Runs, c)
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

// corpusIndex is what the extraction passes read beside the logs. Every
// (method, instance) key has a dense id, numbered in name then instance
// order, so comparing ids compares keys; an object's id is its name's
// rank. The tables are sized by the corpus's calls, accesses and
// symbols; nothing is indexed by a trace-supplied number, since aid
// serve extracts corpora that arrive over the network.
type corpusIndex struct {
	runs []trace.LogRun
	syms *trace.Symbols
	// keyFn[k] and keyInst[k] are key k's function id and instance.
	keyFn   []int32
	keyInst []int
	// objRank[o] is object id o's name rank, objs the names by rank.
	objRank []int32
	objs    []trace.ObjectID
	// Run i's spans, and then their accesses, have the flat numbers from
	// callOff[i] and accOff[i] on.
	callOff, accOff []int
	callKey         []int32 // flat span -> key
	// Run i's accesses grouped by span (groupBySpan) are at accOff[i] in
	// accOrder, with the group starts at callOff[i]+i in accStart.
	accStart, accOrder []int32
	// root[f] reports that no other span of flat span f's thread
	// strictly encloses it.
	root []bool
	// stats[k] is key k's success baseline (present 0: it never ran in
	// a success), and nonLeaf[k] reports that some success call of k
	// strictly encloses another span of its thread.
	stats   []succStats
	nonLeaf []bool
	succs   int
}

// newCorpusIndex numbers the keys, groups each run's accesses by span,
// folds the success baselines, and sweeps each run's spans once.
func newCorpusIndex(ls *trace.LogSet) *corpusIndex {
	x := &corpusIndex{runs: ls.Runs, syms: &ls.Syms, callOff: make([]int, len(ls.Runs)), accOff: make([]int, len(ls.Runs))}
	nCalls, nAccs := 0, 0
	for i := range ls.Runs {
		x.callOff[i], x.accOff[i] = nCalls, nAccs
		nCalls += len(ls.Runs[i].Log.Spans)
		nAccs += len(ls.Runs[i].Log.Accesses)
	}
	x.numberKeys(nCalls)
	x.objRank, x.objs = objectRanks(ls.Syms.Objects)
	x.accStart = make([]int32, nCalls+len(ls.Runs))
	x.accOrder = make([]int32, nAccs)
	for i := range ls.Runs {
		l := &ls.Runs[i].Log
		groupBySpan(l, x.accStart[x.callOff[i]+i:][:len(l.Spans)+1], x.accOrder[x.accOff[i]:][:len(l.Accesses)])
	}

	x.stats = make([]succStats, len(x.keyFn))
	for i := range x.runs {
		if x.runs[i].Failed() {
			continue
		}
		x.succs++
		spans := x.runs[i].Log.Spans
		for j := range spans {
			x.stats[x.callKey[x.callOff[i]+j]].add(spanFacts(&spans[j]))
		}
	}
	x.sweep()
	return x
}

// numberKeys gives every span its key. The machine numbers a function's
// calls from 0 in each run, so a key is its function's base plus the
// instance, the bases laid out in function (name) order. An interned
// file's instances are arbitrary (repeated, negative, 4e9); when some
// instance is not below its function's call count in the corpus, the
// distinct keys are sorted instead.
func (x *corpusIndex) numberKeys(nCalls int) {
	nf := len(x.syms.Funcs)
	calls := make([]int, nf) // function -> calls, then its key base
	width := make([]int, nf) // function -> highest instance + 1
	dense := true
	for i := range x.runs {
		spans := x.runs[i].Log.Spans
		for j := range spans {
			s := &spans[j]
			calls[s.Fn]++
			if s.Instance < 0 || s.Instance >= nCalls {
				dense = false
				continue
			}
			width[s.Fn] = max(width[s.Fn], s.Instance+1)
		}
	}
	for f := range nf {
		dense = dense && width[f] <= calls[f]
	}
	x.callKey = make([]int32, nCalls)
	if dense {
		base := calls
		n := 0
		for f := range nf {
			base[f] = n
			n += width[f]
		}
		x.keyFn, x.keyInst = make([]int32, n), make([]int, n)
		for f := range nf {
			for i := range width[f] {
				x.keyFn[base[f]+i], x.keyInst[base[f]+i] = int32(f), i
			}
		}
		for i := range x.runs {
			spans := x.runs[i].Log.Spans
			for j := range spans {
				x.callKey[x.callOff[i]+j] = int32(base[spans[j].Fn] + spans[j].Instance)
			}
		}
		return
	}
	type keyed struct {
		fn   int32
		inst int
		call int32 // flat span
	}
	all := make([]keyed, 0, nCalls)
	for i := range x.runs {
		spans := x.runs[i].Log.Spans
		for j := range spans {
			all = append(all, keyed{spans[j].Fn, spans[j].Instance, int32(x.callOff[i] + j)})
		}
	}
	slices.SortFunc(all, func(p, q keyed) int { return cmp.Or(cmp.Compare(p.fn, q.fn), cmp.Compare(p.inst, q.inst)) })
	for k, e := range all {
		if k == 0 || e.fn != all[k-1].fn || e.inst != all[k-1].inst {
			x.keyFn, x.keyInst = append(x.keyFn, e.fn), append(x.keyInst, e.inst)
		}
		x.callKey[e.call] = int32(len(x.keyFn) - 1)
	}
}

// key returns key k's method name and instance.
func (x *corpusIndex) key(k int32) instKey {
	return instKey{x.syms.Funcs[x.keyFn[k]], x.keyInst[k]}
}

// spanAccesses returns the access indices of run row's span j, in the
// row's log order.
func (x *corpusIndex) spanAccesses(row, j int) []int32 {
	s := x.accStart[x.callOff[row]+row+j:]
	return x.accOrder[x.accOff[row]:][s[0]:s[1]]
}

// objectRanks returns each object id's rank among the distinct names of
// objs, and the names by rank: ids that share a name share its rank.
func objectRanks(objs []trace.ObjectID) (rank []int32, names []trace.ObjectID) {
	ids := make([]int32, len(objs))
	for i := range ids {
		ids[i] = int32(i)
	}
	slices.SortFunc(ids, func(a, b int32) int { return cmp.Compare(objs[a], objs[b]) })
	rank = make([]int32, len(objs))
	for k, id := range ids {
		if k == 0 || objs[id] != objs[ids[k-1]] {
			names = append(names, objs[id])
		}
		rank[id] = int32(len(names) - 1)
	}
	return rank, names
}

// groupBySpan fills order with l's access indices grouped by span, each
// span's in log order, and start (len(l.Spans)+1 entries) with where
// each span's group begins in order. len(order) is len(l.Accesses).
func groupBySpan(l *trace.RunLog, start, order []int32) {
	clear(start)
	for i := range l.Accesses {
		start[l.Accesses[i].Span+1]++
	}
	for j := 1; j < len(start); j++ {
		start[j] += start[j-1]
	}
	for i := range l.Accesses {
		s := l.Accesses[i].Span
		order[start[s]] = int32(i)
		start[s]++
	}
	// start[s] now ends span s's group, which is where s+1's begins.
	copy(start[1:], start[:len(start)-1])
	start[0] = 0
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
// one sort per run in place of a scan per span pair. With spans sorted
// by thread, start, then end descending, a span's strict enclosers are
// the earlier spans of its thread that have another window and end at
// or after it does, and the spans it strictly encloses are the later
// ones that end at or before it does. That holds for any windows,
// nested or not.
func (x *corpusIndex) sweep() {
	x.root = make([]bool, len(x.callKey))
	x.nonLeaf = make([]bool, len(x.keyFn))
	var order []int32
	for i := range x.runs {
		calls := x.runs[i].Log.Spans
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
			if !x.runs[i].Failed() {
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

// stampFailures records the failure predicate F in every failed run's
// log; runs[i] is corpus row i.
func stampFailures(runs []trace.LogRun, c *Corpus) {
	fh, _ := c.HandleOf(FailureID)
	for i := range runs {
		r := &runs[i]
		if !r.Failed() || len(r.Log.Spans) == 0 {
			continue
		}
		var end trace.Time
		for j := range r.Log.Spans {
			end = max(end, r.Log.Spans[j].End)
		}
		// F is stamped strictly after the last event: the failure
		// manifests once everything observed has happened, so any
		// predicate completing by the crash can temporally precede F.
		c.SetOcc(i, fh, Occurrence{Start: end, End: end + 1, Thread: NoThread})
	}
}

// callFacts is what the per-call rules read of one span: its window,
// whether it threw, and its return value.
type callFacts struct {
	start, end trace.Time
	failed     bool
	ret        trace.Value
}

func spanFacts(s *trace.Span) callFacts { return callFacts{s.Start, s.End, s.Failed(), s.Return} }

func (f *callFacts) duration() trace.Time { return f.end - f.start }

// add folds one success-run call of the instance into the baseline.
func (st *succStats) add(call callFacts) {
	if st.present == 0 {
		st.minDur, st.maxDur, st.retConsistent = call.duration(), call.duration(), true
	}
	st.present++
	if d := call.duration(); d < st.minDur {
		st.minDur = d
	} else if d > st.maxDur {
		st.maxDur = d
	}
	if call.start > st.maxStart {
		st.maxStart = call.start
	}
	if call.failed {
		// A throwing success-run call has no usable return value.
		st.retConsistent = false
		return
	}
	if !st.retSet {
		st.ret = call.ret
		st.retSet = true
	} else if !st.ret.Equal(call.ret) {
		st.retConsistent = false
	}
}

// holds reports whether the per-call predicate of kind k holds for
// call, given the instance's success baseline st (nil when the instance
// never ran in a success); root reports whether no other span of the
// call's thread strictly encloses it, and is asked only of a late call.
// It is the one definition that extraction and the replay monitors
// share.
func holds(k Kind, call callFacts, st *succStats, margin trace.Time, root func() bool) bool {
	if k == KindMethodFails {
		return call.failed
	}
	if st == nil {
		return false
	}
	switch k {
	case KindTooSlow:
		return call.duration() > st.maxDur+margin
	case KindTooFast:
		return !call.failed && call.duration() < st.minDur-margin
	case KindStartsLate:
		// Lateness of a nested call is subsumed by its enclosing span's
		// behaviour; only thread-root spans carry a meaningful
		// scheduling-lateness signal (§4 Case 2: the caller's late start
		// causes the callee's).
		return call.start > st.maxStart+margin && root()
	case KindWrongReturn:
		_, ok := st.usableRet()
		return ok && !call.failed && !call.ret.Void && !call.ret.Equal(st.ret)
	}
	return false
}

// extractPerCall emits the per-call predicates (perCallKinds) for
// every method instance, resolving each (key, kind)'s handle once.
func (x *corpusIndex) extractPerCall(c *Corpus, cfg Config) {
	nk := len(perCallKinds)
	handles := make([]Handle, len(x.keyFn)*nk)
	for i := range handles {
		handles[i] = -1
	}
	for i := range x.runs {
		spans := x.runs[i].Log.Spans
		for j := range spans {
			span := &spans[j]
			f := x.callOff[i] + j
			k := x.callKey[f]
			st := x.baseline(k)
			facts := spanFacts(span)
			root := func() bool { return x.root[f] }
			for ki, kind := range perCallKinds {
				if !holds(kind, facts, st, cfg.DurationMargin, root) {
					continue
				}
				h := &handles[int(k)*nk+ki]
				if *h < 0 {
					key := x.key(k)
					id := ID(perCallPrefix[kind] + key.String())
					var ok bool
					if *h, ok = c.HandleOf(id); !ok {
						var exc string
						if span.Exc >= 0 {
							exc = x.syms.Exceptions[span.Exc]
						}
						*h = c.AddPred(perCallPredicate(id, kind, key, exc, st, cfg))
					}
				}
				c.SetOcc(i, *h, Occurrence{Start: span.Start, End: span.End, Thread: span.Thread})
			}
		}
	}
}

// perCallPredicate builds the per-call predicate of the given kind for
// instance k, first seen holding at a call that threw exc (when it
// threw); st is k's success baseline (nil only for a method that fails).
func perCallPredicate(id ID, kind Kind, k instKey, exc string, st *succStats, cfg Config) Predicate {
	p := Predicate{ID: id, Kind: kind, Methods: []string{k.m}, Instance: k.inst, Stamp: ByEnd}
	safe := cfg.sideEffectFree(k.m)
	switch kind {
	case KindMethodFails:
		p.Repair = Intervention{Kind: IvCatchException, Methods: []string{k.m}, Safe: safe}
		if st != nil {
			p.Repair.Value, _ = st.usableRet()
		}
		p.Desc = fmt.Sprintf("method %s (call #%d) throws %s", k.m, k.inst, exc)
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

// accessWindow summarizes one span's accesses to one object: its
// thread, the time interval from its first to its last access, whether
// any access is a write, and the set of mutex ids held by every access
// (a race needs one unprotected conflicting pair, so only locks held
// across the whole window rule a pair out). The set is locks[lo:hi] of
// the pass's lock buffer, so a window holds no pointer and moves without
// write barriers.
type accessWindow struct {
	thread   trace.ThreadID
	start    trace.Time
	end      trace.Time
	hasWrite bool
	lo, hi   int32
}

// open starts w with its first access, copying held onto the lock
// buffer, and returns the grown buffer.
func (w *accessWindow) open(locks, held []int32, thread trace.ThreadID, at trace.Time) []int32 {
	*w = accessWindow{thread: thread, start: at, end: at, lo: int32(len(locks))}
	locks = append(locks, held...)
	w.hi = int32(len(locks))
	return locks
}

// extend widens w to a further access, keeping the locks that access
// also held.
func (w *accessWindow) extend(locks, held []int32, at trace.Time) {
	w.start, w.end = min(w.start, at), max(w.end, at)
	n := w.lo
	for _, mu := range locks[w.lo:w.hi] {
		if slices.Contains(held, mu) {
			locks[n] = mu
			n++
		}
	}
	w.hi = n
}

// raceWindow is extractRaces's access window, with its object's rank
// and its call's function.
type raceWindow struct {
	accessWindow
	m, o int32
}

// raceEntry is the handle of the race between functions m1 <= m2 on the
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
// Windows are bucketed by object, in span order, and each object keeps
// its races' handles sorted by method pair. The bucket backings and the
// buffer behind the per-window locksets are reused across runs (the
// locks buffer is rewound for each one: a window never outlives its
// run's pass).
func (x *corpusIndex) extractRaces(c *Corpus) {
	winOf := make([]int32, len(x.objs)) // object -> the current call's window, -1 none
	for o := range winOf {
		winOf[o] = -1
	}
	buckets := make([][]raceWindow, len(x.objs))
	handles := make([][]raceEntry, len(x.objs))
	var wins []raceWindow
	var objs []int32
	var locks []int32
	for row := range x.runs {
		l := &x.runs[row].Log
		objs = objs[:0]
		locks = locks[:0]
		for j := range l.Spans {
			span := &l.Spans[j]
			wins = wins[:0]
			for _, k := range x.spanAccesses(row, j) {
				acc := &l.Accesses[k]
				o := x.objRank[acc.Obj]
				held := l.Lockset(acc.Lockset)
				wi := winOf[o]
				if wi < 0 {
					wi = int32(len(wins))
					winOf[o] = wi
					wins = append(wins, raceWindow{m: span.Fn, o: o})
					locks = wins[wi].open(locks, held, span.Thread, acc.At)
				} else {
					wins[wi].extend(locks, held, acc.At)
				}
				if acc.Kind == uint8(trace.Write) {
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
					if !races(&a.accessWindow, &b.accessWindow, locks) {
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
			// Truncate the bucket for reuse by the next run.
			buckets[o] = ws[:0]
		}
	}
}

// raceHandle returns the handle of the race between functions m1 <= m2
// on object o, registering the predicate when it is new.
func (x *corpusIndex) raceHandle(c *Corpus, handles [][]raceEntry, m1, m2, o int32) Handle {
	list := handles[o]
	i, found := slices.BinarySearchFunc(list, raceEntry{m1: m1, m2: m2}, func(p, q raceEntry) int {
		return cmp.Or(cmp.Compare(p.m1, q.m1), cmp.Compare(p.m2, q.m2))
	})
	if found {
		return list[i].h
	}
	n1, n2, obj := x.syms.Funcs[m1], x.syms.Funcs[m2], x.objs[o]
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
// (each starts before the other ends), and no lock held across both;
// locks is the windows' lock buffer.
func races(a, b *accessWindow, locks []int32) bool {
	if a.thread == b.thread || !a.hasWrite && !b.hasWrite || a.start >= b.end || b.start >= a.end {
		return false
	}
	for _, mu := range locks[a.lo:a.hi] {
		if slices.Contains(locks[b.lo:b.hi], mu) {
			return false
		}
	}
	return true
}

// raceID names the data race between methods m1 <= m2 on obj.
func raceID(m1, m2 string, obj trace.ObjectID) ID {
	return ID("race:" + m1 + "|" + m2 + "@" + string(obj))
}

// dedupe returns methods a and b, once each.
func dedupe(a, b string) []string {
	if a == b {
		return []string{a}
	}
	return []string{a, b}
}

// extractOrder finds instance pairs (A, B) that are strictly ordered
// A-then-B in every successful run and emits the predicate "B starts
// before A ends" wherever the order flips.
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
	slot := make([]int32, len(x.keyFn))
	var keys []int32
	for k := range x.keyFn {
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
	// Run i's last span of baseline key s is its Spans[rows[i*nk+s]]
	// (-1: none).
	rows := make([]int32, len(x.runs)*nk)
	for i := range rows {
		rows[i] = -1
	}
	for i := range x.runs {
		for j := range x.runs[i].Log.Spans {
			if s := slot[x.callKey[x.callOff[i]+j]]; s >= 0 {
				rows[i*nk+int(s)] = int32(j)
			}
		}
	}
	call := func(i, s int) *trace.Span {
		if j := rows[i*nk+s]; j >= 0 {
			return &x.runs[i].Log.Spans[j]
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
	profiles := make([]accessProfile, nk)
	// A success's baseline calls' starts and ends, by slot.
	start := make([]trace.Time, nk)
	end := make([]trace.Time, nk)
	for i := range x.runs {
		if x.runs[i].Failed() {
			continue
		}
		l := &x.runs[i].Log
		for s := range nk {
			j := rows[i*nk+s]
			if j < 0 {
				// A key missing from a success is ordered against none.
				for t := range nk {
					ordered[s*nk+t], ordered[t*nk+s] = false, false
				}
				continue
			}
			start[s], end[s] = l.Spans[j].Start, l.Spans[j].End
			for _, k := range x.spanAccesses(i, int(j)) {
				acc := &l.Accesses[k]
				profiles[s].add(x.objRank[acc.Obj], acc.Kind == uint8(trace.Write))
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
			for i := range x.runs {
				ca, cb := call(i, a), call(i, b)
				if ca == nil || cb == nil || ca.End <= cb.Start {
					continue
				}
				if h < 0 {
					h = c.AddPred(orderPredicate(x.key(keys[a]), x.key(keys[b])))
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

// accessProfile records the objects (name ranks) an instance touches,
// sorted, each with whether any of its accesses writes.
type accessProfile []profileEntry

type profileEntry struct {
	obj   int32
	write bool
}

// add records one access to obj.
func (p *accessProfile) add(obj int32, write bool) {
	i, found := slices.BinarySearchFunc(*p, obj, func(e profileEntry, o int32) int { return cmp.Compare(e.obj, o) })
	if !found {
		*p = slices.Insert(*p, i, profileEntry{obj: obj})
	}
	(*p)[i].write = (*p)[i].write || write
}

// conflicting reports whether two profiles touch a common object with
// at least one write.
func conflicting(a, b accessProfile) bool {
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

// atomAccess is one object access in a run's per-object access
// sequence: its time and kind, and its span's thread and index. ref is
// the reader's: extraction's key of the span, or the monitors' index of
// the access in the log.
type atomAccess struct {
	at     trace.Time
	thread trace.ThreadID
	kind   trace.AccessKind
	span   int32
	ref    int32
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
// remote write slips between a candidate pair in a failed run. A
// successful run never emits: a violation there makes the pair violated
// in a success.
func (x *corpusIndex) extractAtomicity(c *Corpus) {
	byObj := make([][]atomAccess, len(x.objs))
	cands := make([][]atomCandidate, len(x.keyFn))
	var objs []int32
	find := func(a, b *atomAccess, o int32) (int, bool) {
		return slices.BinarySearchFunc(cands[a.ref], atomCandidate{b: b.ref, o: o}, func(p, q atomCandidate) int {
			return cmp.Or(cmp.Compare(p.b, q.b), cmp.Compare(p.o, q.o))
		})
	}
	// scan reports the candidate pairs of run row, object by object in
	// name order. Each object's sequence is built span by span, each
	// span's accesses in log order, as the reference reads an
	// Execution's calls.
	scan := func(row int, record func(a, b *atomAccess, o int32, violated bool)) {
		l := &x.runs[row].Log
		objs = objs[:0]
		for j := range l.Spans {
			key := x.callKey[x.callOff[row]+j]
			for _, k := range x.spanAccesses(row, j) {
				acc := &l.Accesses[k]
				o := x.objRank[acc.Obj]
				if len(byObj[o]) == 0 {
					objs = append(objs, o)
				}
				byObj[o] = append(byObj[o], atomAccess{at: acc.At, thread: l.Spans[j].Thread, kind: trace.AccessKind(acc.Kind), span: int32(j), ref: key})
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
	for row := range x.runs {
		if x.runs[row].Failed() {
			continue
		}
		scan(row, func(a, b *atomAccess, o int32, violated bool) {
			i, found := find(a, b, o)
			if !found {
				cands[a.ref] = slices.Insert(cands[a.ref], i, atomCandidate{b: b.ref, o: o, h: -1})
			}
			cands[a.ref][i].violated = cands[a.ref][i].violated || violated
		})
	}
	for row := range x.runs {
		if !x.runs[row].Failed() {
			continue
		}
		scan(row, func(a, b *atomAccess, o int32, violated bool) {
			if !violated {
				return
			}
			i, found := find(a, b, o)
			if !found || cands[a.ref][i].violated {
				return
			}
			cd := &cands[a.ref][i]
			if cd.h < 0 {
				cd.h = x.atomHandle(c, &x.runs[row].Log, a.ref, b.ref, x.objs[o])
			}
			c.SetOcc(row, cd.h, Occurrence{Start: a.at, End: b.at, Thread: NoThread})
		})
	}
}

// atomHandle returns the handle of the atomicity violation of key ka
// then key kb on obj, registering the predicate when it is new; its
// repair locks the pair's common parent in l.
func (x *corpusIndex) atomHandle(c *Corpus, l *trace.RunLog, ka, kb int32, obj trace.ObjectID) Handle {
	a, b := x.key(ka), x.key(kb)
	id := atomID(a, b, obj)
	if h, ok := c.HandleOf(id); ok {
		return h
	}
	repair := Intervention{Kind: IvNone}
	if parent := commonParent(l, x.keyFn[ka], a.inst, x.keyFn[kb], b.inst); parent >= 0 {
		repair = Intervention{
			Kind:    IvLockMethods,
			Methods: []string{x.syms.Funcs[l.Spans[parent].Fn]},
			Safe:    true,
		}
	}
	return c.AddPred(Predicate{
		ID: id, Kind: KindAtomicityViolation,
		Methods: dedupe(a.m, b.m), Object: obj, Stamp: ByStart,
		Repair: repair,
		Desc: fmt.Sprintf("atomicity of %s then %s on %s violated by a remote write",
			a, b, obj),
	})
}

// sortAccesses orders one object's accesses by time. The sort is
// unstable: equal-time accesses end in an order fixed by the input
// order, which every caller builds the same way (spans in log order,
// each span's accesses in order), so extraction and the monitors see
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
			if a.thread != b.thread || a.span == b.span {
				continue
			}
			violated := false
			for z := x + 1; z < y; z++ {
				if w := &accs[z]; w.thread != a.thread && w.kind == trace.Write {
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

// commonParent returns the innermost span of the pair's thread that
// encloses both instances' first spans (function fa's instance ia, fb's
// ib), or -1.
func commonParent(l *trace.RunLog, fa int32, ia int, fb int32, ib int) int {
	ca, cb := firstSpan(l, fa, ia), firstSpan(l, fb, ib)
	if ca < 0 || cb < 0 || l.Spans[ca].Thread != l.Spans[cb].Thread {
		return -1
	}
	sa, sb := &l.Spans[ca], &l.Spans[cb]
	best := -1
	for i := range l.Spans {
		p := &l.Spans[i]
		if p.Thread != sa.Thread || i == ca || i == cb {
			continue
		}
		if p.Start <= sa.Start && p.End >= sb.End && (best < 0 || p.Start > l.Spans[best].Start) {
			best = i
		}
	}
	return best
}

// firstSpan returns the index of function fn's first span with the
// given instance, or -1.
func firstSpan(l *trace.RunLog, fn int32, inst int) int {
	for i := range l.Spans {
		if l.Spans[i].Fn == fn && l.Spans[i].Instance == inst {
			return i
		}
	}
	return -1
}
