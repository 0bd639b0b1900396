package core

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"aid/internal/predicate"
)

// TestMemoExportImportRoundTrip pins the persistence contract: a memo
// exported from one scheduler and imported into a fresh one (bound to
// an outcome-equivalent world) serves the same groups as cache hits
// with identical observations and zero re-executions — and survives a
// JSON round trip, which is how the daemon stores it.
func TestMemoExportImportRoundTrip(t *testing.T) {
	w1 := chainWorld()
	s1 := NewScheduler(w1, SchedulerConfig{})
	ctx := context.Background()
	groups := [][]predicate.ID{{"A"}, {"A", "B"}, {"A", "B", "C"}}
	want := map[string][]Observation{}
	for _, g := range groups {
		obs, _, err := s1.Outcome(ctx, Request{Preds: g})
		if err != nil {
			t.Fatal(err)
		}
		want[canonKey(g)] = obs
	}

	exported := s1.ExportMemo()
	if len(exported) != len(groups) {
		t.Fatalf("exported %d entries, want %d", len(exported), len(groups))
	}
	// Export is canonical: a second export is byte-identical.
	b1, err := json.Marshal(exported)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(s1.ExportMemo())
	if string(b1) != string(b2) {
		t.Fatal("repeated exports differ — export order is not canonical")
	}

	var restored []MemoEntry
	if err := json.Unmarshal(b1, &restored); err != nil {
		t.Fatal(err)
	}
	w2 := chainWorld()
	s2 := NewScheduler(w2, SchedulerConfig{})
	if n := s2.ImportMemo(restored); n != len(groups) {
		t.Fatalf("imported %d entries, want %d", n, len(groups))
	}
	for _, g := range groups {
		obs, m, err := s2.Outcome(ctx, Request{Preds: g})
		if err != nil {
			t.Fatal(err)
		}
		if !m.CacheHit {
			t.Errorf("group %v not served from imported memo", g)
		}
		if !reflect.DeepEqual(obs, want[canonKey(g)]) {
			t.Errorf("group %v: imported observations differ", g)
		}
	}
	if w2.calls != 0 {
		t.Fatalf("fresh world intervened %d times, want 0 (all from memo)", w2.calls)
	}
	if st := s2.Stats(); st.CacheHits != len(groups) {
		t.Fatalf("stats = %+v, want %d cache hits", st, len(groups))
	}
}

// TestMemoImportExistingWins: a live outcome already in the cache is at
// least as fresh as a persisted one — the import must not clobber it.
func TestMemoImportExistingWins(t *testing.T) {
	w := chainWorld()
	s := NewScheduler(w, SchedulerConfig{})
	ctx := context.Background()
	live, _, err := s.Outcome(ctx, Request{Preds: []predicate.ID{"A"}})
	if err != nil {
		t.Fatal(err)
	}
	stale := []MemoEntry{
		{Preds: []predicate.ID{"A"}, Obs: []Observation{{}}},      // collides with live entry
		{Preds: []predicate.ID{"A", "B"}, Obs: []Observation{{}}}, // fresh key
		{},                           // malformed: no preds
		{Preds: []predicate.ID{"C"}}, // malformed: no obs
	}
	if n := s.ImportMemo(stale); n != 1 {
		t.Fatalf("imported %d entries, want 1 (collision and malformed skipped)", n)
	}
	obs, m, err := s.Outcome(ctx, Request{Preds: []predicate.ID{"A"}})
	if err != nil || !m.CacheHit {
		t.Fatalf("err=%v meta=%+v", err, m)
	}
	if !reflect.DeepEqual(obs, live) {
		t.Fatal("import clobbered the live outcome")
	}
}

// TestMemoRefusedWhereCachingIsUnsound: NoCache has no cache and robust
// mode's cache is entangled with its verdict index — both must refuse
// export and import rather than half-work.
func TestMemoRefusedWhereCachingIsUnsound(t *testing.T) {
	entries := []MemoEntry{{Preds: []predicate.ID{"A"}, Obs: []Observation{{}}}}
	for _, tc := range []struct {
		name string
		iv   Intervener
		cfg  SchedulerConfig
	}{
		{"NoCache", chainWorld(), SchedulerConfig{NoCache: true}},
		{"Robust", NewRobustIntervener(chainWorld(), RobustConfig{}), SchedulerConfig{}},
	} {
		s := NewScheduler(tc.iv, tc.cfg)
		if s.Robust() != (tc.name == "Robust") {
			t.Fatalf("%s: Robust() = %v", tc.name, s.Robust())
		}
		if got := s.ExportMemo(); got != nil {
			t.Errorf("%s: ExportMemo = %d entries, want nil", tc.name, len(got))
		}
		if n := s.ImportMemo(entries); n != 0 {
			t.Errorf("%s: ImportMemo accepted %d entries, want 0", tc.name, n)
		}
	}
}

// TestMemoExportSkipsFailedOutcomes: errors are never memoized across
// runs (TestSchedulerDoesNotMemoizeErrors pins that for one process);
// the export path must uphold the same rule for the persisted cache.
func TestMemoExportSkipsFailedOutcomes(t *testing.T) {
	s := NewScheduler(&errOnceWorld{w: chainWorld()}, SchedulerConfig{})
	ctx := context.Background()
	if _, _, err := s.Outcome(ctx, Request{Preds: []predicate.ID{"A"}}); err == nil {
		t.Fatal("first request should fail")
	}
	if got := s.ExportMemo(); len(got) != 0 {
		t.Fatalf("failed outcome exported: %d entries", len(got))
	}
	if _, _, err := s.Outcome(ctx, Request{Preds: []predicate.ID{"A"}}); err != nil {
		t.Fatal(err)
	}
	if got := s.ExportMemo(); len(got) != 1 {
		t.Fatalf("exported %d entries after success, want 1", len(got))
	}
}
