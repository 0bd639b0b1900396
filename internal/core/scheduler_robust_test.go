package core

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"aid/internal/predicate"
)

// liarsWorld scripts per-group verdict sequences: each Intervene on a
// group consumes the next scripted verdict (true = stopped), repeating
// the last entry forever. It stands in for a noisy trial oracle whose
// lies are placed exactly where a test needs them, so the scheduler
// runs over it in robust mode; an escalated retest is one more scripted
// verdict, and no round reports trial provenance.
type liarsWorld struct {
	script map[string][]bool
	calls  map[string]int
}

var _ TrialIntervener = (*liarsWorld)(nil)

func (w *liarsWorld) InterveneEscalated(ctx context.Context, preds []predicate.ID, _ int) ([]Observation, error) {
	return w.Intervene(ctx, preds)
}

func (w *liarsWorld) LastInfo() TrialInfo { return TrialInfo{} }

func liarsKey(preds []predicate.ID) string {
	ids := make([]string, len(preds))
	for i, p := range preds {
		ids[i] = string(p)
	}
	sort.Strings(ids)
	return strings.Join(ids, ",")
}

func (w *liarsWorld) Intervene(_ context.Context, preds []predicate.ID) ([]Observation, error) {
	if w.calls == nil {
		w.calls = map[string]int{}
	}
	k := liarsKey(preds)
	seq, ok := w.script[k]
	if !ok {
		panic("liarsWorld: unscripted group " + k)
	}
	i := w.calls[k]
	w.calls[k]++
	if i >= len(seq) {
		i = len(seq) - 1
	}
	if seq[i] {
		return obsClean(), nil
	}
	return obsFail("x"), nil
}

// TestSchedulerContradictionRepaired checks the robust scheduler
// detects a monotonicity violation — a recorded "stopped" subset
// against a fresh "persisted" superset — and repairs it: escalated
// retests of both sides correct the lying verdict, update the cache,
// and fire a Resolved contradiction event.
func TestSchedulerContradictionRepaired(t *testing.T) {
	w := &liarsWorld{script: map[string][]bool{
		"a":   {true, false}, // lies "stopped" once; truth is persisted
		"a,b": {false},
	}}
	var events []ContradictionEvent
	s := NewScheduler(w, SchedulerConfig{
		OnContradiction: func(ev ContradictionEvent) { events = append(events, ev) },
	})

	obs1, _, err := s.Outcome(context.Background(), Request{Preds: []predicate.ID{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if anyFailed(obs1) {
		t.Fatal("first verdict on {a} must be the scripted lie (stopped)")
	}

	obs2, meta2, err := s.Outcome(context.Background(), Request{Preds: []predicate.ID{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if !anyFailed(obs2) {
		t.Fatal("superset verdict must persist")
	}
	if !meta2.Contradiction {
		t.Fatal("round meta must flag the contradiction")
	}
	st := s.Stats()
	if st.Contradictions != 1 || st.Repaired != 1 || st.Escalated != 2 {
		t.Fatalf("stats = %+v, want 1 contradiction repaired via 2 escalated retests", st)
	}
	if len(events) != 1 {
		t.Fatalf("got %d contradiction events, want 1", len(events))
	}
	ev := events[0]
	if !ev.Resolved {
		t.Fatalf("event not resolved: %+v", ev)
	}
	if !reflect.DeepEqual(ev.Stopped, []predicate.ID{"a"}) || !reflect.DeepEqual(ev.Persisted, []predicate.ID{"a", "b"}) {
		t.Fatalf("event sides wrong: %+v", ev)
	}

	// The repair rewrote {a}'s cached outcome: a re-request is served
	// from cache with the corrected (persisted) verdict.
	obs3, meta3, err := s.Outcome(context.Background(), Request{Preds: []predicate.ID{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if !meta3.CacheHit {
		t.Fatal("repaired verdict must be memoized")
	}
	if !anyFailed(obs3) {
		t.Fatal("cached verdict for {a} must be the corrected one (persisted)")
	}
}

// TestSchedulerContradictionUnresolved checks an escalated retest that
// upholds both conflicting verdicts resolves the deadlock by trusting
// the persisted side: the stopped verdict is struck from the index and
// cache, and the event reports Resolved == false.
func TestSchedulerContradictionUnresolved(t *testing.T) {
	w := &liarsWorld{script: map[string][]bool{
		"a":   {true},  // sticks to "stopped" even escalated
		"a,b": {false}, // sticks to "persisted"
	}}
	var events []ContradictionEvent
	s := NewScheduler(w, SchedulerConfig{
		OnContradiction: func(ev ContradictionEvent) { events = append(events, ev) },
	})
	if _, _, err := s.Outcome(context.Background(), Request{Preds: []predicate.ID{"a"}}); err != nil {
		t.Fatal(err)
	}
	obs, meta, err := s.Outcome(context.Background(), Request{Preds: []predicate.ID{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if !anyFailed(obs) || !meta.Contradiction {
		t.Fatalf("superset outcome wrong: failed=%v meta=%+v", anyFailed(obs), meta)
	}
	st := s.Stats()
	if st.Contradictions != 1 || st.Repaired != 0 {
		t.Fatalf("stats = %+v, want 1 unrepaired contradiction", st)
	}
	if len(events) != 1 || events[0].Resolved {
		t.Fatalf("events = %+v, want one unresolved", events)
	}

	// The struck verdict's cache entry is gone: a re-request must ask
	// the oracle again rather than replay the distrusted outcome. (The
	// persistent liar then re-contradicts the recorded superset, so the
	// repair runs again — a second contradiction, not a cache replay.)
	calls := w.calls["a"]
	_, meta3, err := s.Outcome(context.Background(), Request{Preds: []predicate.ID{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if meta3.CacheHit {
		t.Fatal("struck verdict must not be served from cache")
	}
	if w.calls["a"] <= calls {
		t.Fatalf("oracle not re-asked for {a} after strike (calls still %d)", w.calls["a"])
	}
	if st := s.Stats(); st.Contradictions != 2 {
		t.Fatalf("re-requesting the persistent liar must re-detect: %+v", st)
	}
}

// TestSchedulerRobustMemoizes pins robust mode's guarded memoization:
// a TrialIntervener puts the scheduler in robust mode, and robust mode
// re-serves vetted outcomes from cache.
func TestSchedulerRobustMemoizes(t *testing.T) {
	w := &liarsWorld{script: map[string][]bool{"a": {false}}}
	s := NewScheduler(w, SchedulerConfig{})
	if _, meta, err := s.Outcome(context.Background(), Request{Preds: []predicate.ID{"a"}}); err != nil || meta.CacheHit {
		t.Fatalf("first outcome: err=%v cacheHit=%v", err, meta.CacheHit)
	}
	_, meta, err := s.Outcome(context.Background(), Request{Preds: []predicate.ID{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if !meta.CacheHit {
		t.Fatal("robust mode must memoize vetted outcomes")
	}
	if w.calls["a"] != 1 {
		t.Fatalf("oracle asked %d times, want 1", w.calls["a"])
	}
	if !s.Robust() {
		t.Fatal("a TrialIntervener must put the scheduler in robust mode")
	}
	if NewScheduler(chainWorld(), SchedulerConfig{}).Robust() {
		t.Fatal("a plain Intervener must not put the scheduler in robust mode")
	}
}

// TestSchedulerRobustMetaCarriesTrials checks the trial oracle's
// provenance (trials, confidence) reaches RoundMeta when the robust
// scheduler wraps a TrialIntervener.
func TestSchedulerRobustMetaCarriesTrials(t *testing.T) {
	inner := &scriptedIntervener{script: []func() ([]Observation, error){ret(obsClean())}}
	robust := NewRobustIntervener(inner, RobustConfig{})
	s := NewScheduler(robust, SchedulerConfig{})
	_, meta, err := s.Outcome(context.Background(), Request{Preds: []predicate.ID{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Trials != 7 || meta.Confidence < 0.99 {
		t.Fatalf("meta = %+v, want 7 trials at >= 0.99 confidence", meta)
	}
}

// TestSchedulerEscalatedRequestBypassesCache checks Request.Escalation
// forces a fresh escalated retest even for a cached group, and the
// retest overwrites the cached outcome.
func TestSchedulerEscalatedRequestBypassesCache(t *testing.T) {
	w := &liarsWorld{script: map[string][]bool{"a": {true, false}}}
	s := NewScheduler(w, SchedulerConfig{})
	obs, _, err := s.Outcome(context.Background(), Request{Preds: []predicate.ID{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if anyFailed(obs) {
		t.Fatal("first verdict must be the scripted stopped lie")
	}
	obs, _, err = s.Outcome(context.Background(), Request{Preds: []predicate.ID{"a"}, Escalation: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !anyFailed(obs) {
		t.Fatal("escalated request must re-ask the oracle, not replay the cache")
	}
	obs, meta, err := s.Outcome(context.Background(), Request{Preds: []predicate.ID{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if !meta.CacheHit || !anyFailed(obs) {
		t.Fatalf("escalated outcome must overwrite the cache: meta=%+v failed=%v", meta, anyFailed(obs))
	}
}
