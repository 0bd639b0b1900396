package predicate

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
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

// callIDs holds the IDs extractPerCall can emit for one method instance,
// indexed like perCallKinds. Extraction passes share a cache keyed by
// instKey so each ID string is concatenated once per distinct instance.
type callIDs [len(perCallKinds)]ID

func idsFor(cache map[instKey]callIDs, k instKey) callIDs {
	ci, ok := cache[k]
	if !ok {
		ks := k.String()
		for i, kind := range perCallKinds {
			ci[i] = ID(perCallPrefix[kind] + ks)
		}
		cache[k] = ci
	}
	return ci
}

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
// Intervention replays are not re-extracted: Monitors answers, per
// replay, the occurrence bits this function would give a corpus's
// predicates over the baselines plus that replay marked failed.
func Extract(s *trace.Set, cfg Config) *Corpus {
	c := NewCorpus()
	for i := range s.Executions {
		e := &s.Executions[i]
		c.AddRow(e.ID, e.Failed())
	}

	succs := s.Successes()
	stats := successBaselines(succs)

	c.AddPred(FailurePredicate())
	stampFailures(s.Executions, 0, c)
	extractPerCall(s.Executions, 0, c, stats, cfg, make(map[instKey]callIDs))
	extractRaces(s.Executions, 0, c, nil)
	if ost, succRows := buildOrderState(succs, stats); ost != nil {
		rows := make([][]*trace.MethodCall, len(s.Executions))
		si := 0
		for i := range s.Executions {
			if s.Executions[i].Outcome == trace.Success {
				rows[i] = succRows[si] // already indexed by buildOrderState
				si++
			} else {
				rows[i] = callRow(&s.Executions[i], ost.keyIdx, len(ost.keys))
			}
		}
		emitOrderViolations(c, ost, rows)
	}
	emitAtomicityViolations(s.Executions, 0, c, buildAtomState(succs), nil)

	c.DropPure(cfg.PureMethods)
	if !cfg.keepUnobserved {
		c.DropUnobserved()
	}
	return c
}

// ExtractStream evaluates the same predicate vocabulary as Extract but
// ingests the corpus one execution row at a time, invoking onRow after
// each row lands — the streaming path behind rank-as-you-ingest: the
// corpus maintains per-predicate counts incrementally, so the callback
// can read live statistical-debugging scores in O(predicates).
//
// The resulting corpus is analytically identical to Extract's (same
// predicates, occurrences, and counts); only the predicate registration
// order differs (first-occurrence order instead of phase order), which
// no downstream consumer observes — scores, candidate sets, and the
// AC-DAG all sort by ID.
func ExtractStream(s *trace.Set, cfg Config, onRow func(row int, c *Corpus)) *Corpus {
	c := NewCorpus()
	succs := s.Successes()
	stats := successBaselines(succs)
	c.AddPred(FailurePredicate())
	ost, succRows := buildOrderState(succs, stats)
	atom := buildAtomState(succs)

	// Candidate order pairs (baseline-ordered, conflicting) and their
	// lazily assigned handles.
	var pairs [][2]int
	var pairHandle []Handle
	if ost != nil {
		nk := len(ost.keys)
		for ai := 0; ai < nk; ai++ {
			for bi := 0; bi < nk; bi++ {
				if ai != bi && ost.ordered[ai*nk+bi] && conflicting(ost.profiles[ai], ost.profiles[bi]) {
					pairs = append(pairs, [2]int{ai, bi})
				}
			}
		}
		pairHandle = make([]Handle, len(pairs))
		for i := range pairHandle {
			pairHandle[i] = NoHandle
		}
	}

	ids := make(map[instKey]callIDs)
	raceSc := newRaceScratch()
	atomSc := newAtomScratch()
	si := 0
	for i := range s.Executions {
		e := &s.Executions[i]
		row := c.AddRow(e.ID, e.Failed())
		one := s.Executions[i : i+1]
		stampFailures(one, row, c)
		extractPerCall(one, row, c, stats, cfg, ids)
		extractRaces(one, row, c, raceSc)
		if ost != nil {
			var cr []*trace.MethodCall
			if e.Outcome == trace.Success {
				cr = succRows[si]
				si++
			} else {
				cr = callRow(e, ost.keyIdx, len(ost.keys))
			}
			for pi, pr := range pairs {
				a, b := cr[pr[0]], cr[pr[1]]
				if a == nil || b == nil || a.End <= b.Start {
					continue
				}
				h := pairHandle[pi]
				if h == NoHandle {
					h = c.AddPred(orderPredicate(ost.keys[pr[0]], ost.keys[pr[1]]))
					pairHandle[pi] = h
				}
				c.SetOcc(row, h, Occurrence{Start: b.Start, End: a.End, Thread: NoThread})
			}
		}
		emitAtomicityViolations(one, row, c, atom, atomSc)
		if onRow != nil {
			onRow(row, c)
		}
	}
	c.DropPure(cfg.PureMethods)
	if !cfg.keepUnobserved {
		c.DropUnobserved()
	}
	return c
}

// stampFailures records the failure predicate F in every failed
// execution's log; execs[k] corresponds to row off+k.
func stampFailures(execs []trace.Execution, off int, c *Corpus) {
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
		c.SetOcc(off+i, fh, Occurrence{Start: end, End: end + 1, Thread: NoThread})
	}
}

func successBaselines(succs []*trace.Execution) map[instKey]*succStats {
	stats := make(map[instKey]*succStats)
	for _, e := range succs {
		for i := range e.Calls {
			call := &e.Calls[i]
			k := instKey{call.Method, call.Instance}
			st, ok := stats[k]
			if !ok {
				st = &succStats{}
				stats[k] = st
			}
			st.add(call)
		}
	}
	return stats
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

// holds reports whether the per-call predicate of kind k holds for call
// in execution e, given the instance's success baseline st (nil when
// the instance never ran in a success). It is the one definition that
// extraction and the replay monitors share.
func holds(k Kind, e *trace.Execution, call *trace.MethodCall, st *succStats, margin trace.Time) bool {
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
		return call.Start > st.maxStart+margin && isThreadRoot(e, call)
	case KindWrongReturn:
		_, ok := st.usableRet()
		return ok && !call.Failed() && !call.Return.Void && !call.Return.Equal(st.ret)
	}
	return false
}

// extractPerCall emits the per-call predicates (perCallKinds) for
// every method instance; execs[k] corresponds to row off+k. ids caches
// the per-instance ID strings across calls.
func extractPerCall(execs []trace.Execution, off int, c *Corpus, stats map[instKey]*succStats, cfg Config, ids map[instKey]callIDs) {
	for i := range execs {
		e := &execs[i]
		for j := range e.Calls {
			call := &e.Calls[j]
			k := instKey{call.Method, call.Instance}
			st := stats[k]
			for ki, kind := range perCallKinds {
				if !holds(kind, e, call, st, cfg.DurationMargin) {
					continue
				}
				id := idsFor(ids, k)[ki]
				h, ok := c.HandleOf(id)
				if !ok {
					h = c.AddPred(perCallPredicate(id, kind, k, call, st, cfg))
				}
				c.SetOcc(off+i, h, Occurrence{Start: call.Start, End: call.End, Thread: call.Thread})
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

// raceScratch holds extractRaces's reusable buffers. ExtractStream
// keeps one across rows, reusing the maps, the bucket backings, and the
// buffer behind the per-window locksets (rewound for each execution:
// a window never outlives its execution's pass).
type raceScratch struct {
	winIdx    map[trace.ObjectID]int
	wins      []accessWindow
	bucketIdx map[trace.ObjectID]int
	buckets   [][]accessWindow
	objs      []trace.ObjectID
	locks     []string
}

func newRaceScratch() *raceScratch {
	return &raceScratch{
		winIdx:    make(map[trace.ObjectID]int),
		bucketIdx: make(map[trace.ObjectID]int),
	}
}

// extractRaces emits data-race predicates using access-window
// interleaving: two method invocations on different threads race on X
// when their access windows on X strictly interleave (each window's
// first access happens before the other's last access), at least one
// access is a write, and no common lock protects both windows. Strict
// interleaving captures the harmful schedules — e.g. two read-modify-
// write sections losing an update — while mere span-envelope overlap
// with disjoint access windows does not race.
func extractRaces(execs []trace.Execution, off int, c *Corpus, sc *raceScratch) {
	if sc == nil {
		sc = newRaceScratch()
	}
	winIdx := sc.winIdx
	wins := sc.wins
	bucketIdx := sc.bucketIdx
	buckets := sc.buckets
	objs := sc.objs
	locks := sc.locks
	defer func() {
		sc.wins, sc.buckets, sc.objs, sc.locks = wins, buckets, objs, locks
	}()
	for i := range execs {
		e := &execs[i]
		row := off + i
		objs = objs[:0]
		locks = locks[:0]
		for j := range e.Calls {
			call := &e.Calls[j]
			clear(winIdx)
			wins = wins[:0]
			for a := range call.Accesses {
				acc := &call.Accesses[a]
				wi, ok := winIdx[acc.Object]
				if !ok {
					wi = len(wins)
					winIdx[acc.Object] = wi
					var held []string
					locks, held = cloneLocks(locks, acc.Locks)
					wins = append(wins, accessWindow{call: call, start: acc.At, end: acc.At, locks: held})
				} else {
					w := &wins[wi]
					if acc.At < w.start {
						w.start = acc.At
					}
					if acc.At > w.end {
						w.end = acc.At
					}
					w.locks = intersectInPlace(w.locks, acc.Locks)
				}
				if acc.Kind == trace.Write {
					wins[wi].hasWrite = true
				}
			}
			for obj, wi := range winIdx {
				bi, ok := bucketIdx[obj]
				if !ok {
					bi = len(buckets)
					bucketIdx[obj] = bi
					buckets = append(buckets, nil)
				}
				if len(buckets[bi]) == 0 {
					objs = append(objs, obj)
				}
				buckets[bi] = append(buckets[bi], wins[wi])
			}
		}
		slices.Sort(objs)
		for _, obj := range objs {
			ws := buckets[bucketIdx[obj]]
			for x := 0; x < len(ws); x++ {
				for y := x + 1; y < len(ws); y++ {
					a, b := &ws[x], &ws[y]
					if !races(a, b) {
						continue
					}
					m1, m2 := a.call.Method, b.call.Method
					if m1 > m2 {
						m1, m2 = m2, m1
					}
					id := raceID(m1, m2, obj)
					h, ok := c.HandleOf(id)
					if !ok {
						h = c.AddPred(Predicate{
							ID: id, Kind: KindDataRace,
							Methods: dedupe(m1, m2), Object: obj, Stamp: ByStart,
							Repair: Intervention{
								Kind: IvLockMethods, Methods: dedupe(m1, m2), Safe: true,
							},
							Desc: "data race between " + m1 + " and " + m2 + " on " + string(obj),
						})
					}
					start := maxTime(a.start, b.start)
					end := minTime(a.end, b.end)
					// Merge with an earlier pair's window in this row
					// (an O(1) read: the column's last write is this row).
					if prev, ok := c.OccAt(row, h); ok {
						if prev.Start < start {
							start = prev.Start
						}
						if prev.End > end {
							end = prev.End
						}
					}
					c.SetOcc(row, h, Occurrence{Start: start, End: end, Thread: NoThread})
				}
			}
		}
		// Truncate this execution's buckets for reuse by the next one.
		for _, obj := range objs {
			bi := bucketIdx[obj]
			buckets[bi] = buckets[bi][:0]
		}
	}
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

func maxTime(a, b trace.Time) trace.Time {
	if a > b {
		return a
	}
	return b
}

func minTime(a, b trace.Time) trace.Time {
	if a < b {
		return a
	}
	return b
}

// extractOrderViolations finds instance pairs (A, B) that are strictly
// ordered A-then-B in every successful execution and emits the
// predicate "B starts before A ends" wherever the order flips.
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
//
// orderState is the success-derived half of order-violation extraction:
// the baseline instance keys, which pairs stayed strictly ordered in
// every success, and the keys' access profiles.
type orderState struct {
	keys     []instKey
	keyIdx   map[instKey]int
	ordered  []bool // flat keys×keys matrix: a-then-b in all successes
	profiles []accessProfile
}

// buildOrderState computes the order baseline from the successes, or
// nil when no order predicate can exist. It also returns the callRows
// of the successes (aligned with succs) so callers reuse them instead
// of re-indexing the same executions.
func buildOrderState(succs []*trace.Execution, stats map[instKey]*succStats) (*orderState, [][]*trace.MethodCall) {
	if len(succs) == 0 {
		return nil, nil
	}
	// Keys present in every success are order-baseline candidates.
	nonLeaf := nonLeafKeys(succs)
	var keys []instKey
	for k, st := range stats {
		if st.present == len(succs) && !nonLeaf[k] {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].m != keys[j].m {
			return keys[i].m < keys[j].m
		}
		return keys[i].inst < keys[j].inst
	})
	nk := len(keys)
	if nk == 0 {
		return nil, nil
	}
	keyIdx := make(map[instKey]int, nk)
	for i, k := range keys {
		keyIdx[k] = i
	}
	succRows := make([][]*trace.MethodCall, len(succs))
	for si, e := range succs {
		succRows[si] = callRow(e, keyIdx, nk)
	}
	// ordered[ai*nk+bi] = true while A ends before B starts in all
	// successes seen so far (flat matrix, not a struct-keyed map).
	ordered := make([]bool, nk*nk)
	for ai := 0; ai < nk; ai++ {
		for bi := 0; bi < nk; bi++ {
			if ai != bi {
				ordered[ai*nk+bi] = true
			}
		}
	}
	for _, row := range succRows {
		for ai := 0; ai < nk; ai++ {
			a := row[ai]
			for bi := 0; bi < nk; bi++ {
				if ai == bi || !ordered[ai*nk+bi] {
					continue
				}
				if b := row[bi]; a == nil || b == nil || a.End > b.Start {
					ordered[ai*nk+bi] = false
				}
			}
		}
	}
	return &orderState{
		keys:     keys,
		keyIdx:   keyIdx,
		ordered:  ordered,
		profiles: accessProfiles(succRows, keys),
	}, succRows
}

// callRow indexes one execution's calls by baseline key: one pass per
// execution replaces a linear Execution.Call scan per (pair, execution)
// probe — the dominant cost of large corpora.
func callRow(e *trace.Execution, keyIdx map[instKey]int, nk int) []*trace.MethodCall {
	row := make([]*trace.MethodCall, nk)
	for ci := range e.Calls {
		call := &e.Calls[ci]
		if ki, ok := keyIdx[instKey{call.Method, call.Instance}]; ok {
			row[ki] = call
		}
	}
	return row
}

// emitOrderViolations emits the predicate "B starts before A ends" for
// every baseline-ordered conflicting pair wherever the order flips;
// rows[i] is the callRow of the execution behind corpus row i.
func emitOrderViolations(c *Corpus, st *orderState, rows [][]*trace.MethodCall) {
	nk := len(st.keys)
	for ai := range st.keys {
		for bi := range st.keys {
			if ai == bi || !st.ordered[ai*nk+bi] {
				continue
			}
			if !conflicting(st.profiles[ai], st.profiles[bi]) {
				continue
			}
			var h Handle
			added := false
			for i := range rows {
				a, b := rows[i][ai], rows[i][bi]
				if a == nil || b == nil || a.End <= b.Start {
					continue
				}
				if !added {
					h = c.AddPred(orderPredicate(st.keys[ai], st.keys[bi]))
					added = true
				}
				c.SetOcc(i, h, Occurrence{Start: b.Start, End: a.End, Thread: NoThread})
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

// Atomicity violations (buildAtomState + emitAtomicityViolations) find
// same-thread span pairs (A, B) both accessing an object X with no
// intervening remote write in any successful run, and emit a predicate
// where a remote write slips between them. The repair serializes the
// pair's common parent with the writer; without a common parent the
// violation cannot be safely repaired at method granularity and the
// intervention is marked unsafe.

// atomCand is a candidate atomicity pair: two same-thread spans with
// consecutive accesses to one object.
type atomCand struct {
	a, b instKey
	obj  trace.ObjectID
}

// atomState is the success-derived half of atomicity extraction,
// immutable once built. ids doubles as the candidate set: only
// success-established pairs can emit, so their predicate IDs are
// interned here once instead of per emission.
type atomState struct {
	ids               map[atomCand]ID
	violatedInSuccess map[atomCand]bool
}

// atomAccess is one object access in scanAtomicity's per-object
// sequence.
type atomAccess struct {
	call *trace.MethodCall
	at   trace.Time
	kind trace.AccessKind
}

// atomScratch holds scanAtomicity's per-object access buckets. The
// same objects recur in every trace of a corpus, so a persistent
// scratch retains the map and the bucket backings across executions,
// truncating instead of reallocating.
type atomScratch struct {
	byObj map[trace.ObjectID][]atomAccess
}

func newAtomScratch() *atomScratch {
	return &atomScratch{byObj: make(map[trace.ObjectID][]atomAccess)}
}

// scanAtomicity walks one execution's object-access sequences and
// reports each candidate pair with whether a remote write intervened.
func scanAtomicity(e *trace.Execution, sc *atomScratch, record func(cd atomCand, violated bool, gapStart, gapEnd trace.Time)) {
	if sc == nil {
		sc = newAtomScratch()
	}
	byObj := sc.byObj
	for j := range e.Calls {
		call := &e.Calls[j]
		for a := range call.Accesses {
			acc := &call.Accesses[a]
			byObj[acc.Object] = append(byObj[acc.Object], atomAccess{call, acc.At, acc.Kind})
		}
	}
	// Buckets left empty by this execution are skipped, so a persistent
	// scratch sees exactly the objects a fresh map would.
	for obj, accs := range byObj {
		if len(accs) == 0 {
			continue
		}
		sortAccesses(accs)
		atomPairs(accs, func(a, b *trace.MethodCall, violated bool, gapStart, gapEnd trace.Time) {
			record(atomCand{
				a:   instKey{a.Method, a.Instance},
				b:   instKey{b.Method, b.Instance},
				obj: obj,
			}, violated, gapStart, gapEnd)
		})
	}
	// Truncate the touched buckets so the next execution appends into
	// the retained backings.
	for obj, accs := range byObj {
		if len(accs) != 0 {
			byObj[obj] = accs[:0]
		}
	}
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
func atomPairs(accs []atomAccess, record func(a, b *trace.MethodCall, violated bool, gapStart, gapEnd trace.Time)) {
	for x := 0; x < len(accs); x++ {
		for y := x + 1; y < len(accs); y++ {
			a, b := accs[x], accs[y]
			if a.call.Thread != b.call.Thread || a.call == b.call {
				continue
			}
			violated := false
			for z := x + 1; z < y; z++ {
				w := accs[z]
				if w.call.Thread != a.call.Thread && w.kind == trace.Write {
					violated = true
					break
				}
			}
			record(a.call, b.call, violated, a.at, b.at)
			break // only the next foreign-span access matters
		}
	}
}

// atomID names the atomicity violation of a candidate pair.
func atomID(cd atomCand) ID {
	return ID("atom:" + cd.a.String() + "," + cd.b.String() + "@" + string(cd.obj))
}

// buildAtomState collects candidate pairs from the successes:
// consecutive same-thread accesses to the same object from two
// different spans.
func buildAtomState(succs []*trace.Execution) *atomState {
	st := &atomState{
		ids:               make(map[atomCand]ID),
		violatedInSuccess: make(map[atomCand]bool),
	}
	sc := newAtomScratch()
	for _, e := range succs {
		scanAtomicity(e, sc, func(cd atomCand, violated bool, _, _ trace.Time) {
			if _, ok := st.ids[cd]; !ok {
				st.ids[cd] = atomID(cd)
			}
			if violated {
				st.violatedInSuccess[cd] = true
			}
		})
	}
	return st
}

// emitAtomicityViolations emits a predicate wherever a remote write
// slips between a success-established candidate pair; execs[k]
// corresponds to row off+k. Successful executions can never emit
// (a violation there is, by construction, violatedInSuccess).
func emitAtomicityViolations(execs []trace.Execution, off int, c *Corpus, st *atomState, sc *atomScratch) {
	for i := range execs {
		e := &execs[i]
		row := off + i
		scanAtomicity(e, sc, func(cd atomCand, violated bool, gapStart, gapEnd trace.Time) {
			id, cand := st.ids[cd]
			if !violated || !cand || st.violatedInSuccess[cd] {
				return
			}
			h, ok := c.HandleOf(id)
			if !ok {
				parent := commonParent(e, cd.a, cd.b)
				repair := Intervention{Kind: IvNone}
				if parent != "" {
					repair = Intervention{
						Kind:    IvLockMethods,
						Methods: []string{parent},
						Safe:    true,
					}
				}
				h = c.AddPred(Predicate{
					ID: id, Kind: KindAtomicityViolation,
					Methods: dedupe(cd.a.m, cd.b.m), Object: cd.obj, Stamp: ByStart,
					Repair: repair,
					Desc: fmt.Sprintf("atomicity of %s then %s on %s violated by a remote write",
						cd.a, cd.b, cd.obj),
				})
			}
			c.SetOcc(row, h, Occurrence{Start: gapStart, End: gapEnd, Thread: NoThread})
		})
	}
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

// accessProfile records which objects an instance reads and writes.
type accessProfile struct {
	reads  map[trace.ObjectID]bool
	writes map[trace.ObjectID]bool
}

// accessProfiles unions each key's object accesses over the success
// rows (rows[s][ki] is success s's call for key ki), returning one
// profile per key index.
func accessProfiles(rows [][]*trace.MethodCall, keys []instKey) []accessProfile {
	out := make([]accessProfile, len(keys))
	for ki := range keys {
		for _, row := range rows {
			if call := row[ki]; call != nil {
				out[ki].add(call)
			}
		}
	}
	return out
}

// add unions one call's accesses into the profile.
func (p *accessProfile) add(call *trace.MethodCall) {
	if p.reads == nil {
		p.reads = make(map[trace.ObjectID]bool, 4)
		p.writes = make(map[trace.ObjectID]bool, 4)
	}
	for _, a := range call.Accesses {
		if a.Kind == trace.Write {
			p.writes[a.Object] = true
		} else {
			p.reads[a.Object] = true
		}
	}
}

// conflicting reports whether two profiles touch a common object with
// at least one write.
func conflicting(a, b accessProfile) bool {
	for obj := range a.writes {
		if b.reads[obj] || b.writes[obj] {
			return true
		}
	}
	for obj := range b.writes {
		if a.reads[obj] {
			return true
		}
	}
	return false
}

// nonLeafKeys finds every instance that strictly encloses another
// same-thread span in some success — one pass over each execution's
// span pairs instead of a per-key Execution.Call scan.
func nonLeafKeys(succs []*trace.Execution) map[instKey]bool {
	out := make(map[instKey]bool)
	for _, e := range succs {
		for i := range e.Calls {
			parent := &e.Calls[i]
			k := instKey{parent.Method, parent.Instance}
			if !out[k] && enclosesSpan(e, parent) {
				out[k] = true
			}
		}
	}
	return out
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
