// Package predicate models runtime predicates and extracts them from
// execution traces.
//
// A predicate is a Boolean statement about one execution ("there is a
// data race between M1 and M2 on X", "method M returns an incorrect
// value", ...). Following the paper (§3.2 and Appendix A), AID separates
// instrumentation from predicate extraction: traces are collected once
// and predicates are evaluated offline, so new predicate designs need no
// re-instrumentation. Multiple dynamic executions of the same statement
// (loops, repeated calls) map to separate predicate instances.
//
// Every predicate carries the fault-injection recipe that repairs it
// (forces it to its value in successful executions), per Fig. 2 of the
// paper; package inject translates recipes into sim plans.
//
// The corpus is columnar: predicate IDs are interned to dense int32
// handles, and each predicate owns one occurrence bitmap over the
// execution rows plus a rank-aligned occurrence-window array. Corpus-
// wide queries (precision/recall counts, conjunction tests, the AC-DAG's
// counterfactual filter) run word-parallel over the bitmaps, and
// per-predicate counts are maintained incrementally on ingest, so a
// statistical-debugging score is an O(1) read. String IDs survive only
// at the API edges:
// reports, trace files, DOT output, and the intervention scheduler's
// memo keys.
package predicate

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"aid/internal/bitvec"
	"aid/internal/trace"
)

// ID uniquely names a predicate within a corpus.
type ID string

// Handle is the dense corpus-local index of an interned predicate ID.
// Handles are stable for the life of a corpus except across
// DropUnobserved, which compacts them.
type Handle int32

// Kind classifies predicates by the runtime condition they capture.
type Kind int

// Predicate kinds. KindFailure is the distinguished predicate F that
// holds exactly in failed executions.
const (
	KindFailure Kind = iota
	KindDataRace
	KindMethodFails
	KindTooSlow
	KindTooFast
	KindWrongReturn
	KindOrderViolation
	KindAtomicityViolation
	KindCompound
	// KindStartsLate captures §4's Case 2: a method begins later than in
	// any successful run. Lateness is inherited from the environment
	// (the caller started late, a predecessor ran long), so there is no
	// local repair — the predicate is diagnostic only and never enters
	// the AC-DAG's intervenable set.
	KindStartsLate
)

var kindNames = map[Kind]string{
	KindFailure:            "failure",
	KindDataRace:           "data-race",
	KindMethodFails:        "method-fails",
	KindTooSlow:            "runs-too-slow",
	KindTooFast:            "runs-too-fast",
	KindWrongReturn:        "wrong-return",
	KindOrderViolation:     "order-violation",
	KindAtomicityViolation: "atomicity-violation",
	KindCompound:           "compound",
	KindStartsLate:         "starts-late",
}

// String returns the kind's name.
func (k Kind) String() string { return kindNames[k] }

// Durational reports whether the predicate describes an ongoing
// condition spanning its whole window (a duration anomaly) rather than
// an instantaneous event. The AC-DAG orders a durational predicate
// against an instantaneous one by the duration's start — the ongoing
// condition enables events that occur within or after its window (§4's
// pairwise precedence policies).
func (k Kind) Durational() bool { return k == KindTooSlow || k == KindTooFast }

// StampPolicy selects the representative timestamp of an occurrence for
// temporal-precedence comparisons (§4: some predicate kinds order by
// start time, others by end time).
type StampPolicy int

const (
	// ByStart orders occurrences by window start (e.g. "starts later
	// than expected": the enclosing span's lateness causes the callee's).
	ByStart StampPolicy = iota
	// ByEnd orders occurrences by window end (e.g. "runs too slow": the
	// callee's slowness causes the caller's, and the callee ends first).
	ByEnd
)

// InterventionKind names a fault-injection mechanism from Fig. 2.
type InterventionKind int

// Intervention kinds; IvNone marks predicates that cannot be repaired.
const (
	IvNone InterventionKind = iota
	// IvLockMethods serializes the named methods with one shared lock
	// (repairs data races and atomicity violations).
	IvLockMethods
	// IvCatchException wraps the method in a try-catch (repairs
	// "method fails").
	IvCatchException
	// IvPrematureReturn returns the correct value immediately (repairs
	// "runs too slow").
	IvPrematureReturn
	// IvDelayReturn delays the method's return (repairs "runs too fast").
	IvDelayReturn
	// IvOverrideReturn forces the correct return value (repairs
	// "returns incorrect value").
	IvOverrideReturn
	// IvEnforceOrder makes the second method wait for the first
	// (repairs order violations).
	IvEnforceOrder
	// IvGroup composes several interventions (compound predicates).
	IvGroup
)

// Intervention is the declarative repair recipe for a predicate.
type Intervention struct {
	Kind    InterventionKind
	Methods []string
	// Value / Void configure return-value interventions.
	Value int64
	Void  bool
	// Delay configures delay interventions (ticks).
	Delay int64
	// Safe reports whether the intervention has no undesirable side
	// effects (§3.3): return-value and exception interventions are safe
	// only on side-effect-free methods; timing and locking interventions
	// are always safe.
	Safe bool
	// Parts holds the component interventions of an IvGroup.
	Parts []Intervention
}

// Predicate is one Boolean runtime condition plus the metadata AID
// needs: its timestamp policy and its repair recipe.
type Predicate struct {
	ID       ID
	Kind     Kind
	Methods  []string
	Instance int
	Object   trace.ObjectID
	// Members lists component predicate IDs for compound predicates.
	Members []ID
	Stamp   StampPolicy
	Repair  Intervention
	// Desc is a human-readable statement of the condition.
	Desc string
}

// String returns the predicate's description, falling back to its ID.
func (p *Predicate) String() string {
	if p.Desc != "" {
		return p.Desc
	}
	return string(p.ID)
}

// Occurrence is one manifestation of a predicate in one execution: a
// time window within the run, attributed to a thread when the
// predicate concerns a single thread's span (Thread = -1 for
// multi-thread or global predicates). Thread attribution lets the
// AC-DAG order two durational predicates by nesting only when they
// belong to the same thread.
type Occurrence struct {
	Start  trace.Time     `json:"start"`
	End    trace.Time     `json:"end"`
	Thread trace.ThreadID `json:"thread"`
}

// NoThread marks occurrences not attributable to a single thread.
const NoThread trace.ThreadID = -1

// StampTime returns the representative timestamp under the policy.
func (o Occurrence) StampTime(p StampPolicy) trace.Time {
	if p == ByEnd {
		return o.End
	}
	return o.Start
}

// column is the per-predicate store: the occurrence bitmap over the
// execution rows plus the occurrence windows, rank-aligned with the
// set bits (occs[k] belongs to the k-th set row of rows).
type column struct {
	rows bitvec.Vec
	occs []Occurrence
	// last is the highest row with a bit set (-1 when empty); ingest is
	// append-only per column, so last makes same-row merge O(1).
	last int32
	// failCnt counts set rows that are failed executions (maintained
	// incrementally — the numerator of precision and recall).
	failCnt int32
}

// ExecLog is a read-only view of one execution row of a corpus: which
// predicates occurred in that execution and when. It is a 16-byte
// handle, cheap to copy; the data lives in the corpus's columns.
type ExecLog struct {
	c   *Corpus
	row int32
}

// ExecID returns the execution's identifier.
func (l ExecLog) ExecID() string { return l.c.execIDs[l.row] }

// Failed reports whether the execution failed.
func (l ExecLog) Failed() bool { return l.c.failedRows.Has(int(l.row)) }

// OccMap materializes the row as an ID-keyed occurrence map — the
// row-oriented edge representation the oracles and tests read.
func (l ExecLog) OccMap() map[ID]Occurrence {
	out := make(map[ID]Occurrence)
	row := int(l.row)
	for h := range l.c.cols {
		col := &l.c.cols[h]
		if col.rows.Has(row) {
			occ, _ := l.c.OccAt(row, Handle(h))
			out[l.c.Preds[h].ID] = occ
		}
	}
	return out
}

// Corpus is a set of predicates plus their occurrence columns over a
// set of executions — the input to statistical debugging and the
// AC-DAG. Rows (executions) are append-only; columns are written in
// nondecreasing row order (the natural order of extraction).
type Corpus struct {
	Preds []Predicate // indexed by Handle
	byID  map[ID]Handle
	cols  []column

	execIDs    []string
	failedRows bitvec.Vec
	nFail      int

	// effectPruned counts predicates removed by DropPure (the
	// effect-guided pruning pass); see EffectPruned.
	effectPruned int

	// logs is the corpus the predicates were extracted from (nil for a
	// corpus built otherwise); see Logs.
	logs *trace.LogSet
}

// Logs returns the runs, in log form, that ExtractLogs (or Extract)
// read to build the corpus, row for row; nil for a corpus built
// otherwise. The replay monitors learn their baselines from its
// successful runs.
func (c *Corpus) Logs() *trace.LogSet { return c.logs }

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{byID: make(map[ID]Handle)}
}

// AddPred registers a predicate and returns its handle; re-adding an
// existing ID returns the existing handle. The column's row bitmap is
// sized for the rows registered so far (ExtractLogs registers every row
// before its first predicate), so recording occurrences in those rows
// never grows it.
func (c *Corpus) AddPred(p Predicate) Handle { return c.addPred(p, 0) }

// addPred is AddPred with room for occCap occurrences, for extraction
// passes that know a bound on the rows a new predicate can occur in.
func (c *Corpus) addPred(p Predicate, occCap int) Handle {
	if h, ok := c.byID[p.ID]; ok {
		return h
	}
	h := Handle(len(c.Preds))
	c.byID[p.ID] = h
	c.Preds = append(c.Preds, p)
	col := column{rows: bitvec.New(len(c.execIDs)), last: -1}
	if occCap > 0 {
		col.occs = make([]Occurrence, 0, occCap)
	}
	c.cols = append(c.cols, col)
	return h
}

// HandleOf interns an ID: it returns the predicate's dense handle.
func (c *Corpus) HandleOf(id ID) (Handle, bool) {
	h, ok := c.byID[id]
	return h, ok
}

// Pred returns the predicate with the given ID, or nil.
func (c *Corpus) Pred(id ID) *Predicate {
	h, ok := c.byID[id]
	if !ok {
		return nil
	}
	return &c.Preds[h]
}

// PredAt returns the predicate behind a handle.
func (c *Corpus) PredAt(h Handle) *Predicate { return &c.Preds[h] }

// IDs returns all predicate IDs in registration order.
func (c *Corpus) IDs() []ID {
	out := make([]ID, len(c.Preds))
	for i := range c.Preds {
		out[i] = c.Preds[i].ID
	}
	return out
}

// NumPreds returns the number of registered predicates.
func (c *Corpus) NumPreds() int { return len(c.Preds) }

// NumLogs returns the number of execution rows.
func (c *Corpus) NumLogs() int { return len(c.execIDs) }

// FailedCount returns the number of failed execution rows.
func (c *Corpus) FailedCount() int { return c.nFail }

// Log returns the view of execution row i.
func (c *Corpus) Log(i int) ExecLog { return ExecLog{c: c, row: int32(i)} }

// AddRow appends one execution row and returns its index. Occurrences
// are then recorded with SetOcc.
func (c *Corpus) AddRow(execID string, failed bool) int {
	row := len(c.execIDs)
	c.execIDs = append(c.execIDs, execID)
	if failed {
		c.failedRows.Set(row)
		c.nFail++
	}
	return row
}

// SetOcc records the predicate's occurrence window in the given row,
// updating the maintained counts. Writes to one column must arrive in
// nondecreasing row order (re-writing the current row merges by
// overwrite, matching map semantics); earlier rows are immutable.
func (c *Corpus) SetOcc(row int, h Handle, occ Occurrence) {
	col := &c.cols[h]
	if int32(row) == col.last {
		col.occs[len(col.occs)-1] = occ
		return
	}
	if int32(row) < col.last {
		panic(fmt.Sprintf("predicate: out-of-order column write: row %d after %d", row, col.last))
	}
	col.rows.Set(row)
	col.occs = append(col.occs, occ)
	col.last = int32(row)
	if c.failedRows.Has(row) {
		col.failCnt++
	}
}

// AddLog appends one execution row from its row-oriented form — the
// ingest entry used by the codec, tests, and offline corpora.
// Every occurrence's predicate must already be registered.
func (c *Corpus) AddLog(execID string, failed bool, occ map[ID]Occurrence) int {
	row := c.AddRow(execID, failed)
	for id, o := range occ {
		h, ok := c.byID[id]
		if !ok {
			panic(fmt.Sprintf("predicate: AddLog references unregistered predicate %q", id))
		}
		c.SetOcc(row, h, o)
	}
	return row
}

// OccAt returns the predicate's occurrence window in the given row.
func (c *Corpus) OccAt(row int, h Handle) (Occurrence, bool) {
	col := &c.cols[h]
	if int32(row) == col.last {
		return col.occs[len(col.occs)-1], true
	}
	if !col.rows.Has(row) {
		return Occurrence{}, false
	}
	return col.occs[col.rows.Rank(row)], true
}

// ForEachOcc calls fn for every (row, occurrence) of the predicate in
// ascending row order.
func (c *Corpus) ForEachOcc(h Handle, fn func(row int, occ Occurrence)) {
	col := &c.cols[h]
	k := 0
	col.rows.ForEach(func(row int) {
		fn(row, col.occs[k])
		k++
	})
}

// Rows returns the predicate's occurrence bitmap over execution rows.
// The returned vector is the corpus's own storage: read-only.
func (c *Corpus) Rows(h Handle) bitvec.Vec { return c.cols[h].rows }

// FailedMask returns the bitmap of failed execution rows (read-only).
func (c *Corpus) FailedMask() bitvec.Vec { return c.failedRows }

// CountsAt returns the maintained (#rows where the predicate occurred,
// #failed rows where it occurred) — O(1), no scan.
func (c *Corpus) CountsAt(h Handle) (occurred, occurredInFailed int) {
	col := &c.cols[h]
	return len(col.occs), int(col.failCnt)
}

// FailedOccurrences returns the predicate's occurrence windows at the
// failed rows, aligned with the failed-row order (length = #failed rows
// where it occurred; for counterfactual predicates that is every failed
// row). The result is freshly allocated.
func (c *Corpus) FailedOccurrences(h Handle) []Occurrence {
	col := &c.cols[h]
	out := make([]Occurrence, 0, col.failCnt)
	k := 0
	col.rows.ForEach(func(row int) {
		if c.failedRows.Has(row) {
			out = append(out, col.occs[k])
		}
		k++
	})
	return out
}

// DropUnobserved removes predicates that never occur in any row,
// compacting handles. Returns the number removed.
func (c *Corpus) DropUnobserved() int {
	keepPreds := make([]Predicate, 0, len(c.Preds))
	keepCols := make([]column, 0, len(c.cols))
	removed := 0
	for i := range c.Preds {
		if len(c.cols[i].occs) > 0 {
			keepPreds = append(keepPreds, c.Preds[i])
			keepCols = append(keepCols, c.cols[i])
		} else {
			removed++
		}
	}
	c.Preds = keepPreds
	c.cols = keepCols
	c.byID = make(map[ID]Handle, len(keepPreds))
	for i := range c.Preds {
		c.byID[c.Preds[i].ID] = Handle(i)
	}
	return removed
}

// DropPure removes predicates anchored entirely in provably-pure
// methods — effect-guided pruning: such methods perform no traced
// accesses and raise no exceptions, so their per-call predicates
// cannot host a root cause (see internal/effects). Predicates with no
// method anchor (the failure predicate F, races and order violations
// spanning mixed methods keep their own anchors) are never dropped.
// Handles compact like DropUnobserved. A nil oracle is a no-op.
// Returns the number removed, also accumulated into EffectPruned.
func (c *Corpus) DropPure(pure func(method string) bool) int {
	if pure == nil {
		return 0
	}
	keepPreds := make([]Predicate, 0, len(c.Preds))
	keepCols := make([]column, 0, len(c.cols))
	removed := 0
	for i := range c.Preds {
		if allMethodsPure(&c.Preds[i], pure) {
			removed++
			continue
		}
		keepPreds = append(keepPreds, c.Preds[i])
		keepCols = append(keepCols, c.cols[i])
	}
	if removed == 0 {
		return 0
	}
	c.Preds = keepPreds
	c.cols = keepCols
	c.byID = make(map[ID]Handle, len(keepPreds))
	for i := range c.Preds {
		c.byID[c.Preds[i].ID] = Handle(i)
	}
	c.effectPruned += removed
	return removed
}

// allMethodsPure reports whether p anchors to at least one method and
// every anchored method is pure.
func allMethodsPure(p *Predicate, pure func(method string) bool) bool {
	if len(p.Methods) == 0 {
		return false
	}
	for _, m := range p.Methods {
		if !pure(m) {
			return false
		}
	}
	return true
}

// EffectPruned returns the total number of predicates DropPure removed
// from this corpus.
func (c *Corpus) EffectPruned() int { return c.effectPruned }

// FailureID is the ID of the distinguished failure predicate F.
const FailureID ID = "FAILURE"

// FailurePredicate builds the predicate F indicating the failure itself.
func FailurePredicate() Predicate {
	return Predicate{
		ID:    FailureID,
		Kind:  KindFailure,
		Stamp: ByEnd,
		Desc:  "the execution fails",
	}
}

// CompoundAnd builds the conjunction of existing predicates: it occurs
// in an execution iff all members occur; its window spans the members'
// windows and its stamp is the latest member stamp (a conjunction
// completes when its last conjunct holds). Its repair composes the
// member repairs. Members must be registered in the corpus.
func (c *Corpus) CompoundAnd(members ...ID) (Predicate, error) {
	if len(members) < 2 {
		return Predicate{}, fmt.Errorf("predicate: compound needs >= 2 members, got %d", len(members))
	}
	sorted := append([]ID(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	parts := make([]string, len(sorted))
	var repair Intervention
	repair.Kind = IvGroup
	repair.Safe = true
	var descs []string
	for i, m := range sorted {
		p := c.Pred(m)
		if p == nil {
			return Predicate{}, fmt.Errorf("predicate: compound member %q not in corpus", m)
		}
		parts[i] = string(m)
		repair.Parts = append(repair.Parts, p.Repair)
		if !p.Repair.Safe {
			repair.Safe = false
		}
		descs = append(descs, p.String())
	}
	id := ID("and(" + strings.Join(parts, ",") + ")")
	pred := Predicate{
		ID:      id,
		Kind:    KindCompound,
		Members: sorted,
		Stamp:   ByEnd,
		Repair:  repair,
		Desc:    "(" + strings.Join(descs, ") AND (") + ")",
	}
	return pred, nil
}

// MaterializeCompound registers the compound predicate and fills its
// occurrences in every row where all members occur. The membership test
// is a word-parallel AND of the member bitmaps; windows are merged in
// one pass per member.
func (c *Corpus) MaterializeCompound(p Predicate) {
	h := c.AddPred(p)
	if len(p.Members) == 0 {
		return
	}
	mh := make([]Handle, len(p.Members))
	for i, m := range p.Members {
		hm, ok := c.byID[m]
		if !ok {
			return // unknown member: the conjunction occurs nowhere
		}
		mh[i] = hm
	}
	and := c.cols[mh[0]].rows.Clone()
	for _, hm := range mh[1:] {
		o := c.cols[hm].rows
		for w := range and {
			if w < len(o) {
				and[w] &= o[w]
			} else {
				and[w] = 0
			}
		}
	}
	var rows []int
	and.ForEach(func(row int) { rows = append(rows, row) })
	if len(rows) == 0 {
		return
	}
	windows := make([]Occurrence, len(rows))
	for k, hm := range mh {
		idx := 0
		c.ForEachOcc(hm, func(row int, occ Occurrence) {
			for idx < len(rows) && rows[idx] < row {
				idx++
			}
			if idx >= len(rows) || rows[idx] != row {
				return
			}
			if k == 0 {
				windows[idx] = occ
				return
			}
			w := &windows[idx]
			if occ.Start < w.Start {
				w.Start = occ.Start
			}
			if occ.End > w.End {
				w.End = occ.End
			}
		})
	}
	for i, row := range rows {
		c.SetOcc(row, h, windows[i])
	}
}

// GroupKey returns the canonical membership key of a predicate group:
// IDs sorted and NUL-joined, insensitive to order and duplicates-free
// only if the input is. It is the cache key shared by the intervention
// scheduler (core) and the group-testing oracle cache (grouptest) —
// one implementation, AppendGroupKey's, so the two layers can never
// diverge. Singleton groups (the bulk of confirmation rounds) skip the
// sort and join.
func GroupKey(ids []ID) string {
	if len(ids) == 1 {
		return string(ids[0])
	}
	n := 0
	for _, id := range ids {
		n += len(id) + 1
	}
	return string(AppendGroupKey(make([]byte, 0, n), slices.Clone(ids)))
}

// AppendGroupKey appends GroupKey(ids)'s bytes to dst and returns the
// extended buffer, sorting ids in place: the form for a caller that owns
// scratch for both and looks the key up before it keeps it.
func AppendGroupKey(dst []byte, ids []ID) []byte {
	slices.Sort(ids)
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, 0)
		}
		dst = append(dst, id...)
	}
	return dst
}
