package aid

import (
	"encoding/json"
	"fmt"
	"reflect"
)

// This file is the Observer event stream's wire format: each Event
// marshals to a one-line JSON envelope {"type": <name>, "event": {…}}
// and unmarshals back to its concrete type. It is the currency of the
// daemon's streaming endpoint (internal/service) and its clients
// (examples/daemon-client): a session's event stream is exactly the
// sequence of MarshalEvent lines its pipeline emitted, and a client
// recovers typed events — including their String renderings — with
// UnmarshalEvent alone, no internal imports.

// Wire names of the Event types, stable across releases.
const (
	EventCollectProgress     = "collect-progress"
	EventTracesCollected     = "traces-collected"
	EventEffectsAnalyzed     = "effects-analyzed"
	EventPredicatesExtracted = "predicates-extracted"
	EventRanked              = "ranked"
	EventDAGBuilt            = "dag-built"
	EventRoundDone           = "round-done"
	EventSchedulerUsage      = "scheduler-usage"
	EventCauseConfirmed      = "cause-confirmed"
	EventDiscoveryDone       = "discovery-done"
	EventStateRecovered      = "state-recovered"
)

// eventTypes is the one table of the Event types and their wire names;
// EventType and UnmarshalEvent both read it.
var eventTypes = []struct {
	name string
	typ  reflect.Type
}{
	{EventCollectProgress, reflect.TypeFor[CollectProgress]()},
	{EventTracesCollected, reflect.TypeFor[TracesCollected]()},
	{EventEffectsAnalyzed, reflect.TypeFor[EffectsAnalyzed]()},
	{EventPredicatesExtracted, reflect.TypeFor[PredicatesExtracted]()},
	{EventRanked, reflect.TypeFor[Ranked]()},
	{EventDAGBuilt, reflect.TypeFor[DAGBuilt]()},
	{EventRoundDone, reflect.TypeFor[RoundDone]()},
	{EventSchedulerUsage, reflect.TypeFor[SchedulerUsage]()},
	{EventCauseConfirmed, reflect.TypeFor[CauseConfirmed]()},
	{EventDiscoveryDone, reflect.TypeFor[DiscoveryDone]()},
	{EventStateRecovered, reflect.TypeFor[StateRecovered]()},
}

// EventType returns e's stable wire name ("" for an unknown type).
func EventType(e Event) string {
	t := reflect.TypeOf(e)
	for _, et := range eventTypes {
		if et.typ == t {
			return et.name
		}
	}
	return ""
}

// eventEnvelope is the wire envelope. Decoders ignore unknown sibling
// fields, so stream producers may add metadata (sequence numbers,
// timestamps) without breaking UnmarshalEvent.
type eventEnvelope struct {
	Type  string          `json:"type"`
	Event json.RawMessage `json:"event"`
}

// MarshalEvent serializes an event as its one-line JSON envelope.
func MarshalEvent(e Event) ([]byte, error) {
	name := EventType(e)
	if name == "" {
		return nil, fmt.Errorf("aid: cannot marshal unknown event type %T", e)
	}
	body, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("aid: marshal %s event: %w", name, err)
	}
	return json.Marshal(eventEnvelope{Type: name, Event: body})
}

// UnmarshalEvent decodes one envelope line back to its concrete Event.
func UnmarshalEvent(data []byte) (Event, error) {
	var env eventEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("aid: malformed event envelope: %w", err)
	}
	for _, et := range eventTypes {
		if et.name != env.Type {
			continue
		}
		v := reflect.New(et.typ)
		if err := json.Unmarshal(env.Event, v.Interface()); err != nil {
			return nil, fmt.Errorf("aid: malformed %s event: %w", env.Type, err)
		}
		// Events travel by value everywhere else in the API; return the
		// concrete value, not the pointer used for decoding.
		return v.Elem().Interface().(Event), nil
	}
	return nil, fmt.Errorf("aid: unknown event type %q", env.Type)
}
