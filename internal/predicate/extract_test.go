package predicate

import (
	"slices"
	"strings"
	"testing"

	"aid/internal/trace"
)

// buildSet assembles a Set from pre-built executions.
func buildSet(execs ...trace.Execution) *trace.Set {
	s := &trace.Set{}
	for _, e := range execs {
		s.Add(e)
	}
	return s
}

func call(m string, th trace.ThreadID, start, end trace.Time) trace.MethodCall {
	return trace.MethodCall{Method: m, Thread: th, Start: start, End: end, Return: trace.VoidValue()}
}

func TestFailurePredicateOccursOnlyInFailures(t *testing.T) {
	s := buildSet(
		trace.Execution{ID: "s", Outcome: trace.Success, Calls: []trace.MethodCall{call("M", 0, 0, 10)}},
		trace.Execution{ID: "f", Outcome: trace.Failure, Calls: []trace.MethodCall{call("M", 0, 0, 20)}},
	)
	c := Extract(s, Config{})
	if c.Pred(FailureID) == nil {
		t.Fatal("failure predicate missing")
	}
	if c.Log(0).Has(FailureID) {
		t.Fatal("failure predicate occurred in success")
	}
	occ, ok := c.Log(1).Occ(FailureID)
	if !ok {
		t.Fatal("failure predicate missing in failed run")
	}
	if occ.End != 21 {
		t.Fatalf("failure stamped at %d, want 21 (just after end of run)", occ.End)
	}
}

func TestMethodFailsExtraction(t *testing.T) {
	bad := call("Query", 0, 0, 10)
	bad.Exception = "NullRef"
	s := buildSet(
		trace.Execution{ID: "s", Outcome: trace.Success, Calls: []trace.MethodCall{call("Query", 0, 0, 10)}},
		trace.Execution{ID: "f", Outcome: trace.Failure, Calls: []trace.MethodCall{bad}},
	)
	c := Extract(s, Config{})
	p := c.Pred("fails:Query#0")
	if p == nil {
		t.Fatal("fails predicate missing")
	}
	if p.Kind != KindMethodFails || p.Stamp != ByEnd {
		t.Fatalf("wrong kind/stamp: %v/%v", p.Kind, p.Stamp)
	}
	if p.Repair.Kind != IvCatchException {
		t.Fatalf("repair = %v, want catch", p.Repair.Kind)
	}
	if p.Repair.Safe {
		t.Fatal("catch repair should be unsafe without SideEffectFree")
	}
	if !c.Log(1).Has(p.ID) || c.Log(0).Has(p.ID) {
		t.Fatal("fails occurrence wrong")
	}

	c2 := Extract(s, Config{SideEffectFree: func(m string) bool { return m == "Query" }})
	if !c2.Pred("fails:Query#0").Repair.Safe {
		t.Fatal("catch repair should be safe for side-effect-free method")
	}
}

func TestTooSlowTooFastBaselines(t *testing.T) {
	// Successes: durations 10 and 20. Failure: 50 (slow). Another
	// success-run call with duration 5 would be "too fast".
	fastCall := call("Task", 0, 0, 5)
	s := buildSet(
		trace.Execution{ID: "s1", Outcome: trace.Success, Calls: []trace.MethodCall{call("Task", 0, 0, 10)}},
		trace.Execution{ID: "s2", Outcome: trace.Success, Calls: []trace.MethodCall{call("Task", 0, 0, 20)}},
		trace.Execution{ID: "f1", Outcome: trace.Failure, Calls: []trace.MethodCall{call("Task", 0, 0, 50)}},
		trace.Execution{ID: "f2", Outcome: trace.Failure, Calls: []trace.MethodCall{fastCall}},
	)
	c := Extract(s, Config{})
	slow := c.Pred("slow:Task#0")
	if slow == nil {
		t.Fatal("slow predicate missing")
	}
	if slow.Repair.Kind != IvPrematureReturn || !slow.Repair.Void {
		t.Fatalf("slow repair = %+v, want premature void return", slow.Repair)
	}
	if !c.Log(2).Has(slow.ID) || c.Log(0).Has(slow.ID) || c.Log(1).Has(slow.ID) {
		t.Fatal("slow occurrence wrong")
	}
	fast := c.Pred("fast:Task#0")
	if fast == nil {
		t.Fatal("fast predicate missing")
	}
	if fast.Repair.Kind != IvDelayReturn || fast.Repair.Delay != 10 {
		t.Fatalf("fast repair = %+v, want delay 10", fast.Repair)
	}
	if !c.Log(3).Has(fast.ID) {
		t.Fatal("fast occurrence missing")
	}
	// Durations inside the success envelope trigger nothing.
	if c.Log(0).Has(slow.ID) || c.Log(0).Has(fast.ID) {
		t.Fatal("baseline runs should have no duration predicates")
	}
}

func TestStartsLateExtraction(t *testing.T) {
	// Successes start M by tick 5; the failure's M starts at 40.
	s := buildSet(
		trace.Execution{ID: "s1", Outcome: trace.Success, Calls: []trace.MethodCall{call("M", 0, 3, 13)}},
		trace.Execution{ID: "s2", Outcome: trace.Success, Calls: []trace.MethodCall{call("M", 0, 5, 15)}},
		trace.Execution{ID: "f", Outcome: trace.Failure, Calls: []trace.MethodCall{call("M", 0, 40, 50)}},
	)
	c := Extract(s, Config{})
	p := c.Pred("late:M#0")
	if p == nil {
		t.Fatalf("starts-late predicate missing; have %v", c.IDs())
	}
	if p.Kind != KindStartsLate || p.Stamp != ByStart {
		t.Fatalf("wrong kind/stamp: %v/%v", p.Kind, p.Stamp)
	}
	if p.Repair.Kind != IvNone {
		t.Fatal("starts-late must be diagnostic only (no repair)")
	}
	if !c.Log(2).Has(p.ID) || c.Log(0).Has(p.ID) || c.Log(1).Has(p.ID) {
		t.Fatal("starts-late occurrence wrong")
	}
	// Within the margin: no predicate.
	s2 := buildSet(
		trace.Execution{ID: "s1", Outcome: trace.Success, Calls: []trace.MethodCall{call("M", 0, 5, 15)}},
		trace.Execution{ID: "f", Outcome: trace.Failure, Calls: []trace.MethodCall{call("M", 0, 7, 17)}},
	)
	if c2 := Extract(s2, Config{DurationMargin: 4}); c2.Pred("late:M#0") != nil {
		t.Fatal("starts-late emitted within the margin")
	}
}

func TestWrongReturnExtraction(t *testing.T) {
	ok1 := call("Get", 0, 0, 10)
	ok1.Return = trace.IntValue(50)
	ok2 := call("Get", 0, 0, 10)
	ok2.Return = trace.IntValue(50)
	bad := call("Get", 0, 0, 10)
	bad.Return = trace.IntValue(-1)
	s := buildSet(
		trace.Execution{ID: "s1", Outcome: trace.Success, Calls: []trace.MethodCall{ok1}},
		trace.Execution{ID: "s2", Outcome: trace.Success, Calls: []trace.MethodCall{ok2}},
		trace.Execution{ID: "f", Outcome: trace.Failure, Calls: []trace.MethodCall{bad}},
	)
	c := Extract(s, Config{SideEffectFree: func(string) bool { return true }})
	p := c.Pred("ret:Get#0")
	if p == nil {
		t.Fatal("wrong-return predicate missing")
	}
	if p.Repair.Kind != IvOverrideReturn || p.Repair.Value != 50 || !p.Repair.Safe {
		t.Fatalf("repair = %+v, want safe override to 50", p.Repair)
	}
	if !c.Log(2).Has(p.ID) {
		t.Fatal("occurrence missing in failed run")
	}
}

func TestWrongReturnSkippedOnInconsistentBaseline(t *testing.T) {
	ok1 := call("Get", 0, 0, 10)
	ok1.Return = trace.IntValue(1)
	ok2 := call("Get", 0, 0, 10)
	ok2.Return = trace.IntValue(2)
	bad := call("Get", 0, 0, 10)
	bad.Return = trace.IntValue(-1)
	s := buildSet(
		trace.Execution{ID: "s1", Outcome: trace.Success, Calls: []trace.MethodCall{ok1}},
		trace.Execution{ID: "s2", Outcome: trace.Success, Calls: []trace.MethodCall{ok2}},
		trace.Execution{ID: "f", Outcome: trace.Failure, Calls: []trace.MethodCall{bad}},
	)
	c := Extract(s, Config{})
	if c.Pred("ret:Get#0") != nil {
		t.Fatal("wrong-return emitted despite inconsistent success baseline")
	}
}

func raceExec(id string, outcome trace.Outcome, overlap bool, locks []string) trace.Execution {
	var m2Start, m2End trace.Time = 5, 15
	if !overlap {
		m2Start, m2End = 20, 30
	}
	// Reader's access window on idx is [2,9]; the writer's single write
	// lands at m2Start+2 — inside the window when overlapping (7),
	// after it otherwise (22).
	reader := call("Reader", 1, 0, 10)
	reader.Accesses = []trace.Access{
		{Object: "idx", Kind: trace.Read, At: 2, Locks: locks},
		{Object: "idx", Kind: trace.Read, At: 9, Locks: locks},
	}
	writer := call("Writer", 2, m2Start, m2End)
	writer.Accesses = []trace.Access{{Object: "idx", Kind: trace.Write, At: m2Start + 2, Locks: locks}}
	return trace.Execution{ID: id, Outcome: outcome, Calls: []trace.MethodCall{reader, writer}}
}

func TestRaceExtraction(t *testing.T) {
	s := buildSet(
		raceExec("s", trace.Success, false, nil),
		raceExec("f", trace.Failure, true, nil),
	)
	c := Extract(s, Config{})
	p := c.Pred("race:Reader|Writer@idx")
	if p == nil {
		t.Fatalf("race predicate missing; have %v", c.IDs())
	}
	if p.Kind != KindDataRace || p.Stamp != ByStart {
		t.Fatalf("wrong kind/stamp: %v/%v", p.Kind, p.Stamp)
	}
	if p.Repair.Kind != IvLockMethods || !p.Repair.Safe {
		t.Fatalf("repair = %+v, want safe lock", p.Repair)
	}
	if c.Log(0).Has(p.ID) || !c.Log(1).Has(p.ID) {
		t.Fatal("race occurrence wrong")
	}
	occ, _ := c.Log(1).Occ(p.ID)
	if occ.Start != 7 || occ.End != 7 {
		t.Fatalf("race window = [%d,%d], want access-window overlap [7,7]", occ.Start, occ.End)
	}
}

func TestRaceSuppressedByCommonLock(t *testing.T) {
	s := buildSet(
		raceExec("s", trace.Success, false, nil),
		raceExec("f", trace.Failure, true, []string{"mu"}),
	)
	c := Extract(s, Config{})
	if c.Pred("race:Reader|Writer@idx") != nil {
		t.Fatal("race emitted despite common lock")
	}
}

func TestRaceRequiresDifferentThreads(t *testing.T) {
	e := raceExec("f", trace.Failure, true, nil)
	e.Calls[1].Thread = e.Calls[0].Thread
	s := buildSet(raceExec("s", trace.Success, false, nil), e)
	c := Extract(s, Config{})
	if c.Pred("race:Reader|Writer@idx") != nil {
		t.Fatal("race emitted for same-thread accesses")
	}
}

func TestRaceRequiresWindowInterleaving(t *testing.T) {
	// Spans overlap but access windows are disjoint (read cluster fully
	// before the write): benign schedule, no race.
	reader := call("Reader", 1, 0, 20)
	reader.Accesses = []trace.Access{
		{Object: "idx", Kind: trace.Read, At: 2},
		{Object: "idx", Kind: trace.Read, At: 4},
	}
	writer := call("Writer", 2, 3, 25)
	writer.Accesses = []trace.Access{{Object: "idx", Kind: trace.Write, At: 10}}
	s := buildSet(
		trace.Execution{ID: "s", Outcome: trace.Success, Calls: []trace.MethodCall{call("Reader", 1, 0, 5)}},
		trace.Execution{ID: "f", Outcome: trace.Failure, Calls: []trace.MethodCall{reader, writer}},
	)
	c := Extract(s, Config{})
	if c.Pred("race:Reader|Writer@idx") != nil {
		t.Fatal("race emitted despite disjoint access windows")
	}
}

func TestRaceLostUpdateInterleaving(t *testing.T) {
	// Two read-modify-write sections interleave (both read before
	// either writes): the classic lost update, a race.
	mk := func(m string, th trace.ThreadID, r, w trace.Time) trace.MethodCall {
		cl := call(m, th, r-1, w+1)
		cl.Accesses = []trace.Access{
			{Object: "ctr", Kind: trace.Read, At: r},
			{Object: "ctr", Kind: trace.Write, At: w},
		}
		return cl
	}
	s := buildSet(
		trace.Execution{ID: "s", Outcome: trace.Success, Calls: []trace.MethodCall{
			mk("Inc", 1, 2, 4), mk("Inc", 2, 10, 12)}},
		trace.Execution{ID: "f", Outcome: trace.Failure, Calls: []trace.MethodCall{
			mk("Inc", 1, 2, 8), mk("Inc", 2, 3, 6)}},
	)
	c := Extract(s, Config{})
	p := c.Pred("race:Inc|Inc@ctr")
	if p == nil {
		t.Fatalf("lost-update race not detected; have %v", c.IDs())
	}
	if c.Log(0).Has(p.ID) {
		t.Fatal("sequential RMW sections flagged as racing")
	}
}

func TestRaceRequiresAWrite(t *testing.T) {
	e := raceExec("f", trace.Failure, true, nil)
	e.Calls[1].Accesses[0].Kind = trace.Read
	s := buildSet(raceExec("s", trace.Success, false, nil), e)
	c := Extract(s, Config{})
	if c.Pred("race:Reader|Writer@idx") != nil {
		t.Fatal("race emitted for read-read pair")
	}
}

func orderExec(id string, outcome trace.Outcome, flipped bool) trace.Execution {
	var aStart, aEnd, bStart, bEnd trace.Time = 0, 10, 20, 30
	if flipped {
		aStart, aEnd, bStart, bEnd = 20, 30, 0, 10
	}
	first := call("First", 1, aStart, aEnd)
	first.Accesses = []trace.Access{{Object: "data", Kind: trace.Write, At: aStart + 1}}
	second := call("Second", 2, bStart, bEnd)
	second.Accesses = []trace.Access{{Object: "data", Kind: trace.Read, At: bStart + 1}}
	return trace.Execution{ID: id, Outcome: outcome, Calls: []trace.MethodCall{first, second}}
}

func TestOrderViolationExtraction(t *testing.T) {
	s := buildSet(
		orderExec("s1", trace.Success, false),
		orderExec("s2", trace.Success, false),
		orderExec("f", trace.Failure, true),
	)
	c := Extract(s, Config{})
	p := c.Pred("order:First#0<Second#0")
	if p == nil {
		t.Fatalf("order predicate missing; have %v", c.IDs())
	}
	if p.Repair.Kind != IvEnforceOrder || len(p.Repair.Methods) != 2 {
		t.Fatalf("repair = %+v", p.Repair)
	}
	if c.Log(0).Has(p.ID) || !c.Log(2).Has(p.ID) {
		t.Fatal("order occurrence wrong")
	}
}

func TestOrderViolationNotEmittedWhenConsistent(t *testing.T) {
	s := buildSet(
		orderExec("s1", trace.Success, false),
		orderExec("f", trace.Failure, false), // same order in failure
	)
	c := Extract(s, Config{})
	for _, id := range c.IDs() {
		if strings.HasPrefix(string(id), "order:") {
			t.Fatalf("unexpected order predicate %s", id)
		}
	}
}

func atomicityExec(id string, outcome trace.Outcome, interleaved bool) trace.Execution {
	parent := call("Parent", 1, 0, 100)
	a := call("ReadCfg", 1, 10, 20)
	a.Accesses = []trace.Access{{Object: "cfg", Kind: trace.Read, At: 15}}
	b := call("UseCfg", 1, 40, 50)
	b.Accesses = []trace.Access{{Object: "cfg", Kind: trace.Read, At: 45}}
	w := call("Updater", 2, 25, 35)
	wAt := trace.Time(90) // after the pair: harmless
	if interleaved {
		wAt = 30 // between the pair: violation
	}
	w.Start, w.End = wAt-2, wAt+2
	w.Accesses = []trace.Access{{Object: "cfg", Kind: trace.Write, At: wAt}}
	return trace.Execution{ID: id, Outcome: outcome, Calls: []trace.MethodCall{parent, a, b, w}}
}

func TestAtomicityViolationExtraction(t *testing.T) {
	s := buildSet(
		atomicityExec("s", trace.Success, false),
		atomicityExec("f", trace.Failure, true),
	)
	c := Extract(s, Config{})
	p := c.Pred("atom:ReadCfg#0,UseCfg#0@cfg")
	if p == nil {
		t.Fatalf("atomicity predicate missing; have %v", c.IDs())
	}
	if p.Repair.Kind != IvLockMethods {
		t.Fatalf("repair = %+v, want lock on common parent", p.Repair)
	}
	if len(p.Repair.Methods) != 1 || p.Repair.Methods[0] != "Parent" {
		t.Fatalf("repair methods = %v, want [Parent]", p.Repair.Methods)
	}
	if c.Log(0).Has(p.ID) || !c.Log(1).Has(p.ID) {
		t.Fatal("atomicity occurrence wrong")
	}
}

// TestAtomicityOrderDeterministic pins the registration order of
// atomicity predicates whose violations first appear in the same row:
// A then B on thread 0 touch four objects, and in the failure one remote
// write per object slips between them. The predicates must be added in
// sorted-object order, the same in every extraction.
func TestAtomicityOrderDeterministic(t *testing.T) {
	objs := []trace.ObjectID{"X", "Y", "Z", "V"}
	exec := func(id string, outcome trace.Outcome) trace.Execution {
		a, b := call("A", 0, 0, 10), call("B", 0, 20, 30)
		for k, obj := range objs {
			a.Accesses = append(a.Accesses, trace.Access{Object: obj, Kind: trace.Read, At: trace.Time(1 + k)})
			b.Accesses = append(b.Accesses, trace.Access{Object: obj, Kind: trace.Read, At: trace.Time(21 + k)})
		}
		calls := []trace.MethodCall{a, b}
		if outcome == trace.Failure {
			w := call("W", 1, 11, 19)
			for k, obj := range objs {
				w.Accesses = append(w.Accesses, trace.Access{Object: obj, Kind: trace.Write, At: trace.Time(12 + k)})
			}
			calls = append(calls, w)
		}
		return trace.Execution{ID: id, Outcome: outcome, Calls: calls}
	}
	s := buildSet(exec("s1", trace.Success), exec("s2", trace.Success), exec("f", trace.Failure))
	want := []ID{FailureID, "atom:A#0,B#0@V", "atom:A#0,B#0@X", "atom:A#0,B#0@Y", "atom:A#0,B#0@Z"}
	for i := 0; i < 100; i++ {
		if got := Extract(s, Config{}).IDs(); !slices.Equal(got, want) {
			t.Fatalf("extraction %d registered %v, want %v", i, got, want)
		}
	}
}

func TestAtomicityWithoutParentIsUnrepairable(t *testing.T) {
	strip := func(e trace.Execution) trace.Execution {
		e.Calls = e.Calls[1:] // drop Parent span
		return e
	}
	s := buildSet(
		strip(atomicityExec("s", trace.Success, false)),
		strip(atomicityExec("f", trace.Failure, true)),
	)
	c := Extract(s, Config{})
	p := c.Pred("atom:ReadCfg#0,UseCfg#0@cfg")
	if p == nil {
		t.Fatal("atomicity predicate missing")
	}
	if p.Repair.Kind != IvNone {
		t.Fatalf("repair = %+v, want IvNone without common parent", p.Repair)
	}
}

func TestCompoundMaterialization(t *testing.T) {
	bad := call("Query", 0, 0, 10)
	bad.Exception = "NullRef"
	slow := call("Task", 0, 0, 50)
	s := buildSet(
		trace.Execution{ID: "s", Outcome: trace.Success, Calls: []trace.MethodCall{
			call("Query", 0, 0, 10), call("Task", 0, 0, 10)}},
		trace.Execution{ID: "f1", Outcome: trace.Failure, Calls: []trace.MethodCall{bad, slow}},
		trace.Execution{ID: "f2", Outcome: trace.Failure, Calls: []trace.MethodCall{bad}},
	)
	c := Extract(s, Config{})
	comp, err := c.CompoundAnd("fails:Query#0", "slow:Task#0")
	if err != nil {
		t.Fatal(err)
	}
	c.MaterializeCompound(comp)
	if !c.Log(1).Has(comp.ID) {
		t.Fatal("compound should occur where both members occur")
	}
	if c.Log(2).Has(comp.ID) {
		t.Fatal("compound should not occur where one member is absent")
	}
	occ, _ := c.Log(1).Occ(comp.ID)
	if occ.Start != 0 || occ.End != 50 {
		t.Fatalf("compound window = [%d,%d], want [0,50]", occ.Start, occ.End)
	}
	if comp.Repair.Kind != IvGroup || len(comp.Repair.Parts) != 2 {
		t.Fatalf("compound repair = %+v", comp.Repair)
	}
	if _, err := c.CompoundAnd("fails:Query#0"); err == nil {
		t.Fatal("single-member compound accepted")
	}
	if _, err := c.CompoundAnd("fails:Query#0", "nope"); err == nil {
		t.Fatal("unknown member accepted")
	}
}

func TestCorpusCountsAndDrop(t *testing.T) {
	c := NewCorpus()
	c.AddPred(Predicate{ID: "p"})
	c.AddPred(Predicate{ID: "ghost"})
	c.AddLog("s", false, map[ID]Occurrence{"p": {}})
	c.AddLog("f", true, map[ID]Occurrence{"p": {}})
	occ, inFail, failed := c.Counts("p")
	if occ != 2 || inFail != 1 || failed != 1 {
		t.Fatalf("Counts = (%d,%d,%d)", occ, inFail, failed)
	}
	if removed := c.DropUnobserved(); removed != 1 {
		t.Fatalf("DropUnobserved removed %d, want 1", removed)
	}
	if c.Pred("ghost") != nil || c.Pred("p") == nil {
		t.Fatal("drop removed wrong predicate")
	}
	if len(c.FailedLogs()) != 1 || len(c.SuccessLogs()) != 1 {
		t.Fatal("log partitions wrong")
	}
}

func TestAddPredIdempotent(t *testing.T) {
	c := NewCorpus()
	c.AddPred(Predicate{ID: "x", Desc: "first"})
	c.AddPred(Predicate{ID: "x", Desc: "second"})
	if len(c.Preds) != 1 || c.Pred("x").Desc != "first" {
		t.Fatal("AddPred not idempotent")
	}
}

func TestStampPolicy(t *testing.T) {
	o := Occurrence{Start: 3, End: 9}
	if o.StampTime(ByStart) != 3 || o.StampTime(ByEnd) != 9 {
		t.Fatal("stamp policy wrong")
	}
}
