// Package extractref preserves the map-keyed predicate extractor as an
// executable oracle for predicate.Extract, which interns the corpus and
// indexes slices instead. The contract is "same corpus, different
// layout": TestExtractMatchesReference pins the two byte-identical (as
// corpus-codec JSON) on the case studies' corpora, on generated
// programs' corpora, and on random non-canonical trace sets.
//
// Everything here is intentionally the old shape: baselines, windows,
// profiles and atomicity candidates live in maps keyed by method names,
// (method, instance) pairs and object names, and leaf and thread-root
// tests scan every span pair. Do not "optimize" it: its independence
// from the interned extractor is the point. Only tests import it.
package extractref

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"aid/internal/predicate"
	"aid/internal/trace"
)

// instKey identifies a dynamic method instance across executions.
type instKey struct {
	m    string
	inst int
}

func (k instKey) String() string { return k.m + "#" + strconv.Itoa(k.inst) }

// perCallKinds are the per-call predicate kinds in emission order, and
// perCallPrefix their predicate.ID prefixes: an predicate.ID is the prefix followed by the
// instance key.
var (
	perCallKinds  = [...]predicate.Kind{predicate.KindMethodFails, predicate.KindTooSlow, predicate.KindTooFast, predicate.KindStartsLate, predicate.KindWrongReturn}
	perCallPrefix = map[predicate.Kind]string{
		predicate.KindMethodFails: "fails:", predicate.KindTooSlow: "slow:", predicate.KindTooFast: "fast:",
		predicate.KindStartsLate: "late:", predicate.KindWrongReturn: "ret:",
	}
)

// callIDs holds the IDs extractPerCall can emit for one method instance,
// indexed like perCallKinds. extractPerCall caches them by instKey so
// each predicate.ID string is concatenated once per distinct instance.
type callIDs [len(perCallKinds)]predicate.ID

func idsFor(cache map[instKey]callIDs, k instKey) callIDs {
	ci, ok := cache[k]
	if !ok {
		ks := k.String()
		for i, kind := range perCallKinds {
			ci[i] = predicate.ID(perCallPrefix[kind] + ks)
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
// predicate.Intervention replays are not re-extracted: Monitors answers, per
// replay, the occurrence bits this function would give a corpus's
// predicates over the baselines plus that replay marked failed.
func Extract(s *trace.Set, cfg predicate.Config) *predicate.Corpus {
	c := predicate.NewCorpus()
	for i := range s.Executions {
		e := &s.Executions[i]
		c.AddRow(e.ID, e.Failed())
	}

	succs := s.Successes()
	stats := successBaselines(succs)

	c.AddPred(predicate.FailurePredicate())
	stampFailures(s.Executions, c)
	extractPerCall(s.Executions, c, stats, cfg)
	extractRaces(s.Executions, c)
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
	emitAtomicityViolations(s.Executions, c, buildAtomState(succs))

	c.DropPure(cfg.PureMethods)
	c.DropUnobserved()
	return c
}

// stampFailures records the failure predicate F in every failed
// execution's log; execs[i] is corpus row i.
func stampFailures(execs []trace.Execution, c *predicate.Corpus) {
	fh, _ := c.HandleOf(predicate.FailureID)
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
		c.SetOcc(i, fh, predicate.Occurrence{Start: end, End: end + 1, Thread: predicate.NoThread})
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
func holds(k predicate.Kind, e *trace.Execution, call *trace.MethodCall, st *succStats, margin trace.Time) bool {
	if k == predicate.KindMethodFails {
		return call.Failed()
	}
	if st == nil {
		return false
	}
	switch k {
	case predicate.KindTooSlow:
		return call.Duration() > st.maxDur+margin
	case predicate.KindTooFast:
		return !call.Failed() && call.Duration() < st.minDur-margin
	case predicate.KindStartsLate:
		// Lateness of a nested call is subsumed by its enclosing span's
		// behaviour; only thread-root spans carry a meaningful
		// scheduling-lateness signal (§4 Case 2: the caller's late start
		// causes the callee's).
		return call.Start > st.maxStart+margin && isThreadRoot(e, call)
	case predicate.KindWrongReturn:
		_, ok := st.usableRet()
		return ok && !call.Failed() && !call.Return.Void && !call.Return.Equal(st.ret)
	}
	return false
}

// extractPerCall emits the per-call predicates (perCallKinds) for
// every method instance; execs[i] is corpus row i.
func extractPerCall(execs []trace.Execution, c *predicate.Corpus, stats map[instKey]*succStats, cfg predicate.Config) {
	ids := make(map[instKey]callIDs)
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
				c.SetOcc(i, h, predicate.Occurrence{Start: call.Start, End: call.End, Thread: call.Thread})
			}
		}
	}
}

// perCallPredicate builds the per-call predicate of the given kind for
// instance k, first seen holding at call; st is k's success baseline
// (nil only for a method that fails).
func perCallPredicate(id predicate.ID, kind predicate.Kind, k instKey, call *trace.MethodCall, st *succStats, cfg predicate.Config) predicate.Predicate {
	p := predicate.Predicate{ID: id, Kind: kind, Methods: []string{k.m}, Instance: k.inst, Stamp: predicate.ByEnd}
	safe := cfg.SideEffectFree != nil && cfg.SideEffectFree(k.m)
	switch kind {
	case predicate.KindMethodFails:
		p.Repair = predicate.Intervention{Kind: predicate.IvCatchException, Methods: []string{k.m}, Safe: safe}
		if st != nil {
			p.Repair.Value, _ = st.usableRet()
		}
		p.Desc = fmt.Sprintf("method %s (call #%d) throws %s", k.m, k.inst, call.Exception)
	case predicate.KindTooSlow:
		p.Repair = predicate.Intervention{Kind: predicate.IvPrematureReturn, Methods: []string{k.m}, Safe: safe}
		var ok bool
		p.Repair.Value, ok = st.usableRet()
		p.Repair.Void = !ok
		p.Desc = fmt.Sprintf("method %s (call #%d) runs too slow (> %d ticks)", k.m, k.inst, st.maxDur)
	case predicate.KindTooFast:
		p.Repair = predicate.Intervention{Kind: predicate.IvDelayReturn, Methods: []string{k.m}, Delay: int64(st.minDur), Safe: true}
		p.Desc = fmt.Sprintf("method %s (call #%d) runs too fast (< %d ticks)", k.m, k.inst, st.minDur)
	case predicate.KindStartsLate:
		// Lateness has no local repair (§4 Case 2): the cause lies
		// upstream, so the predicate is diagnostic only.
		p.Stamp, p.Repair = predicate.ByStart, predicate.Intervention{Kind: predicate.IvNone}
		p.Desc = fmt.Sprintf("method %s (call #%d) starts later than expected (> tick %d)", k.m, k.inst, st.maxStart)
	case predicate.KindWrongReturn:
		p.Repair = predicate.Intervention{Kind: predicate.IvOverrideReturn, Methods: []string{k.m}, Value: st.ret.Int, Safe: safe}
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

// extractRaces emits data-race predicates using access-window
// interleaving: two method invocations on different threads race on X
// when their access windows on X strictly interleave (each window's
// first access happens before the other's last access), at least one
// access is a write, and no common lock protects both windows. Strict
// interleaving captures the harmful schedules — e.g. two read-modify-
// write sections losing an update — while mere span-envelope overlap
// with disjoint access windows does not race.
//
// The maps, the bucket backings and the buffer behind the per-window
// locksets are reused across executions (the locks buffer is rewound
// for each one: a window never outlives its execution's pass); execs[i]
// is corpus row i.
func extractRaces(execs []trace.Execution, c *predicate.Corpus) {
	winIdx := make(map[trace.ObjectID]int)
	var wins []accessWindow
	bucketIdx := make(map[trace.ObjectID]int)
	var buckets [][]accessWindow
	var objs []trace.ObjectID
	var locks []string
	for row := range execs {
		e := &execs[row]
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
						h = c.AddPred(predicate.Predicate{
							ID: id, Kind: predicate.KindDataRace,
							Methods: dedupe(m1, m2), Object: obj, Stamp: predicate.ByStart,
							Repair: predicate.Intervention{
								Kind: predicate.IvLockMethods, Methods: dedupe(m1, m2), Safe: true,
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
					c.SetOcc(row, h, predicate.Occurrence{Start: start, End: end, Thread: predicate.NoThread})
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
func raceID(m1, m2 string, obj trace.ObjectID) predicate.ID {
	return predicate.ID("race:" + m1 + "|" + m2 + "@" + string(obj))
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
func emitOrderViolations(c *predicate.Corpus, st *orderState, rows [][]*trace.MethodCall) {
	nk := len(st.keys)
	for ai := range st.keys {
		for bi := range st.keys {
			if ai == bi || !st.ordered[ai*nk+bi] {
				continue
			}
			if !conflicting(st.profiles[ai], st.profiles[bi]) {
				continue
			}
			var h predicate.Handle
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
				c.SetOcc(i, h, predicate.Occurrence{Start: b.Start, End: a.End, Thread: predicate.NoThread})
			}
		}
	}
}

// orderID names the order violation "kb starts before ka ends".
func orderID(ka, kb instKey) predicate.ID {
	return predicate.ID("order:" + ka.String() + "<" + kb.String())
}

// orderPredicate builds the order-violation predicate "kb starts before
// ka ends" for a baseline-ordered pair.
func orderPredicate(ka, kb instKey) predicate.Predicate {
	return predicate.Predicate{
		ID:      orderID(ka, kb),
		Kind:    predicate.KindOrderViolation,
		Methods: dedupe(ka.m, kb.m), Instance: ka.inst, Stamp: predicate.ByStart,
		Repair: predicate.Intervention{
			Kind: predicate.IvEnforceOrder, Methods: []string{ka.m, kb.m}, Safe: true,
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
	ids               map[atomCand]predicate.ID
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
	objs  []trace.ObjectID
}

func newAtomScratch() *atomScratch {
	return &atomScratch{byObj: make(map[trace.ObjectID][]atomAccess)}
}

// scanAtomicity walks one execution's object-access sequences and
// reports each candidate pair with whether a remote write intervened.
func scanAtomicity(e *trace.Execution, sc *atomScratch, record func(cd atomCand, violated bool, gapStart, gapEnd trace.Time)) {
	byObj := sc.byObj
	for j := range e.Calls {
		call := &e.Calls[j]
		for a := range call.Accesses {
			acc := &call.Accesses[a]
			byObj[acc.Object] = append(byObj[acc.Object], atomAccess{call, acc.At, acc.Kind})
		}
	}
	// Objects in sorted-name order, so candidates are recorded (and
	// predicates registered) in an order the map cannot perturb.
	// Buckets left empty by this execution are skipped, so a persistent
	// scratch sees exactly the objects a fresh map would.
	objs := sc.objs[:0]
	for obj, accs := range byObj {
		if len(accs) != 0 {
			objs = append(objs, obj)
		}
	}
	slices.Sort(objs)
	sc.objs = objs
	for _, obj := range objs {
		accs := byObj[obj]
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
func atomID(cd atomCand) predicate.ID {
	return predicate.ID("atom:" + cd.a.String() + "," + cd.b.String() + "@" + string(cd.obj))
}

// buildAtomState collects candidate pairs from the successes:
// consecutive same-thread accesses to the same object from two
// different spans.
func buildAtomState(succs []*trace.Execution) *atomState {
	st := &atomState{
		ids:               make(map[atomCand]predicate.ID),
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
// slips between a success-established candidate pair; execs[i] is
// corpus row i. Successful executions can never emit (a violation
// there is, by construction, violatedInSuccess).
func emitAtomicityViolations(execs []trace.Execution, c *predicate.Corpus, st *atomState) {
	sc := newAtomScratch()
	for row := range execs {
		e := &execs[row]
		scanAtomicity(e, sc, func(cd atomCand, violated bool, gapStart, gapEnd trace.Time) {
			id, cand := st.ids[cd]
			if !violated || !cand || st.violatedInSuccess[cd] {
				return
			}
			h, ok := c.HandleOf(id)
			if !ok {
				parent := commonParent(e, cd.a, cd.b)
				repair := predicate.Intervention{Kind: predicate.IvNone}
				if parent != "" {
					repair = predicate.Intervention{
						Kind:    predicate.IvLockMethods,
						Methods: []string{parent},
						Safe:    true,
					}
				}
				h = c.AddPred(predicate.Predicate{
					ID: id, Kind: predicate.KindAtomicityViolation,
					Methods: dedupe(cd.a.m, cd.b.m), Object: cd.obj, Stamp: predicate.ByStart,
					Repair: repair,
					Desc: fmt.Sprintf("atomicity of %s then %s on %s violated by a remote write",
						cd.a, cd.b, cd.obj),
				})
			}
			c.SetOcc(row, h, predicate.Occurrence{Start: gapStart, End: gapEnd, Thread: predicate.NoThread})
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

// ReplayBits is the replay monitors' reference: bits[r][i] reports
// whether c's i-th predicate occurs in replays[r]'s row of Extract over
// baselines ++ replays, each replay marked failed, with c's compounds
// materialized there in corpus order.
func ReplayBits(c *predicate.Corpus, baselines, replays []trace.Execution, cfg predicate.Config) [][]bool {
	set := &trace.Set{Executions: append(slices.Clone(baselines), replays...)}
	for i := len(baselines); i < len(set.Executions); i++ {
		set.Executions[i].Outcome = trace.Failure
	}
	ref := Extract(set, cfg)
	for _, p := range c.Preds {
		if p.Kind == predicate.KindCompound {
			ref.MaterializeCompound(p)
		}
	}
	bits := make([][]bool, len(replays))
	for r := range replays {
		occ := ref.Log(len(baselines) + r).OccMap()
		for _, p := range c.Preds {
			_, ok := occ[p.ID]
			bits[r] = append(bits[r], ok)
		}
	}
	return bits
}

// Compare extracts s with predicate.Extract and with this reference and
// returns an error showing where their corpus-codec encodings first
// differ, or nil when they are byte-identical.
func Compare(s *trace.Set, cfg predicate.Config) error {
	return diff(predicate.Extract(s, cfg), Extract(s, cfg))
}

// CompareLogs is Compare for a corpus in log form: predicate.ExtractLogs
// reads ls, and the reference its materialized set.
func CompareLogs(ls *trace.LogSet, cfg predicate.Config) error {
	return diff(predicate.ExtractLogs(ls, cfg), Extract(ls.Set(), cfg))
}

func diff(extracted, reference *predicate.Corpus) error {
	var got, want bytes.Buffer
	if err := extracted.Encode(&got); err != nil {
		return err
	}
	if err := reference.Encode(&want); err != nil {
		return err
	}
	g, w := got.Bytes(), want.Bytes()
	if bytes.Equal(g, w) {
		return nil
	}
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	lo := max(i-120, 0)
	return fmt.Errorf("corpora differ at byte %d\n  extract:   ...%s\n  reference: ...%s",
		i, g[lo:min(i+120, len(g))], w[lo:min(i+120, len(w))])
}
