package aid_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"aid"
)

// TestEventWireRoundTrip round-trips one event of every entry of the
// event table through the JSON envelope codec: the decoded value must be
// the same concrete type with the same fields — and therefore the same
// String rendering — so a daemon client sees exactly what an embedded
// observer would.
func TestEventWireRoundTrip(t *testing.T) {
	events := []aid.Event{
		aid.CollectProgress{Successes: 3, Failures: 2, SeedsSwept: 4096},
		aid.TracesCollected{Source: "npgsql", Successes: 50, Failures: 50},
		aid.EffectsAnalyzed{Functions: 13, SideEffectFree: 10, Prunable: 8, Pruned: 6, Contradicted: 1},
		aid.PredicatesExtracted{Total: 123},
		aid.Ranked{FullyDiscriminative: 7},
		aid.DAGBuilt{Nodes: 9, Unsafe: 2},
		aid.RoundDone{Index: 4, Round: aid.Round{Phase: "branch", Intervened: []aid.PredicateID{"p1", "p2"}, Stopped: true, Confirmed: "p1"}, Batch: 2, CacheHit: true, Trials: 6, Confidence: 0.97},
		aid.SchedulerUsage{Requests: 12, CacheHits: 5, Executions: 7},
		aid.CauseConfirmed{ID: "p1"},
		aid.DiscoveryDone{RootCause: "p1", PathLen: 3, Interventions: 11},
		aid.StateRecovered{Corpora: 2, Memos: 3, MemoEntries: 17, RecordsKept: 5, RecordsDropped: 1, Invalidated: 1},
	}
	var names []string
	for _, e := range events {
		names = append(names, aid.EventType(e))
	}
	if want := aid.EventWireNames(); !slices.Equal(names, want) {
		t.Fatalf("the samples cover wire names %q, the event table holds %q", names, want)
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
	}
}

// TestEventWireErrors covers the codec's failure modes and pins their
// texts.
func TestEventWireErrors(t *testing.T) {
	for _, tc := range []struct {
		line, want string
	}{
		{`{"type":"nope","event":{}}`, `aid: unknown event type "nope"`},
		{`not json`, "aid: malformed event envelope: "},
		{`{"type":"ranked","event":[1,2]}`, "aid: malformed ranked event: "},
	} {
		_, err := aid.UnmarshalEvent([]byte(tc.line))
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("UnmarshalEvent(%s) = %v, want an error starting %q", tc.line, err, tc.want)
		}
	}
	// Events travel by value: a pointer to one is not a wire type.
	_, err := aid.MarshalEvent(&aid.Ranked{})
	if want := "aid: cannot marshal unknown event type *aid.Ranked"; err == nil || err.Error() != want {
		t.Errorf("MarshalEvent(*Ranked) = %v, want %q", err, want)
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
