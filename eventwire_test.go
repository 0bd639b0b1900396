package aid_test

import (
	"reflect"
	"strings"
	"testing"

	"aid"
)

// TestEventWireRoundTrip round-trips every event type through the JSON
// envelope codec: the decoded value must be the same concrete type with
// the same fields — and therefore the same String rendering — so a
// daemon client sees exactly what an embedded observer would.
func TestEventWireRoundTrip(t *testing.T) {
	events := []aid.Event{
		aid.CollectProgress{Successes: 3, Failures: 2, SeedsSwept: 4096},
		aid.TracesCollected{Source: "npgsql", Successes: 50, Failures: 50},
		aid.EffectsAnalyzed{Functions: 13, SideEffectFree: 10, Prunable: 8, Pruned: 6, Contradicted: 1},
		aid.PredicatesExtracted{Total: 123},
		aid.Ranked{FullyDiscriminative: 7},
		aid.DAGBuilt{Nodes: 9, Unsafe: 2},
		aid.RoundDone{Index: 4, Round: aid.Round{Phase: "branch", Intervened: []aid.PredicateID{"p1", "p2"}, Stopped: true, Confirmed: "p1"}, Batch: 2, CacheHit: true, Trials: 6, Confidence: 0.97},
		aid.ContradictionDetected{Stopped: []aid.PredicateID{"a"}, Persisted: []aid.PredicateID{"a", "b"}, Resolved: true},
		aid.SchedulerUsage{Requests: 12, CacheHits: 5, Executions: 7},
		aid.CauseConfirmed{ID: "p1"},
		aid.DiscoveryDone{RootCause: "p1", PathLen: 3, Interventions: 11},
		aid.StateRecovered{Corpora: 2, Memos: 3, MemoEntries: 17, RecordsKept: 5, RecordsDropped: 1, Invalidated: 1},
	}
	for _, want := range events {
		line, err := aid.MarshalEvent(want)
		if err != nil {
			t.Fatalf("MarshalEvent(%T): %v", want, err)
		}
		if strings.ContainsRune(string(line), '\n') {
			t.Errorf("MarshalEvent(%T) is not a single line: %q", want, line)
		}
		got, err := aid.UnmarshalEvent(line)
		if err != nil {
			t.Fatalf("UnmarshalEvent(%T): %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip %T:\n got %#v\nwant %#v", want, got, want)
		}
		if got.String() != want.String() {
			t.Errorf("round trip %T changed String: %q != %q", want, got.String(), want.String())
		}
		if aid.EventType(want) == "" {
			t.Errorf("EventType(%T) is empty", want)
		}
	}
}

// TestEventWireErrors covers the codec's failure modes.
func TestEventWireErrors(t *testing.T) {
	if _, err := aid.UnmarshalEvent([]byte(`{"type":"nope","event":{}}`)); err == nil {
		t.Error("unknown type should fail")
	}
	if _, err := aid.UnmarshalEvent([]byte(`not json`)); err == nil {
		t.Error("malformed envelope should fail")
	}
	if _, err := aid.UnmarshalEvent([]byte(`{"type":"ranked","event":[1,2]}`)); err == nil {
		t.Error("malformed body should fail")
	}
}

// TestEventWireForwardCompat: decoders ignore unknown envelope fields so
// producers may add stream metadata.
func TestEventWireForwardCompat(t *testing.T) {
	got, err := aid.UnmarshalEvent([]byte(`{"type":"cause-confirmed","seq":9,"event":{"ID":"px"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cc, ok := got.(aid.CauseConfirmed); !ok || cc.ID != "px" {
		t.Errorf("got %#v", got)
	}
}
