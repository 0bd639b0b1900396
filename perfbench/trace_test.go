package main

import (
	"testing"
)

func TestTotalsSelfTimeAndOther(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "collect", Start: 5, End: 30, N: 40},
		{ID: 3, Parent: 1, Name: "discover", Start: 30, End: 90, N: 6, LeafN: 3, LeafNs: 4},
		{ID: 4, Parent: 3, Name: "replay", Start: 40, End: 60, N: 10},
		{ID: 5, Parent: 3, Name: "replay", Start: 55, End: 70, N: 10}, // overlaps the first
		{ID: 6, Parent: 1, Name: "tagt", Start: 90, End: 98, N: 2},
		{ID: 7, Parent: 6, Name: "replay", Start: 91, End: 97, N: 5},
	}
	tot := totals(spans)
	for name, want := range map[string]int64{
		"op":       100 - 25 - 60 - 8, // the part no layer covers
		"collect":  25,
		"discover": 60 - 30 - 4, // the union of its replays, then its leaf calls
		"tagt":     8 - 6,
		"replay":   20 + 15 + 6,
	} {
		if got := tot.self[name]; got != want {
			t.Errorf("self[%s] = %d, want %d", name, got, want)
		}
	}
	if tot.ops != 1 || tot.dur["replay"] != 41 || tot.n["replay"] != 25 {
		t.Errorf("ops %d, replay dur %d runs %d", tot.ops, tot.dur["replay"], tot.n["replay"])
	}
	if tot.underCount["discover"]["replay"] != 2 || tot.underN["tagt"]["replay"] != 5 || tot.leafN["discover"] != 3 {
		t.Errorf("under %v / %v, leaves %v", tot.underCount, tot.underN, tot.leafN)
	}

	layers := newLayers()
	spanLayers(layers, tot)
	if layers["discover.batches"] != 5 || layers["tagt.replay_runs"] != 5 || layers["collect.seeds_swept"] != 40 {
		t.Errorf("batches %v, TAGT replays %v, seeds %v", layers["discover.batches"], layers["tagt.replay_runs"], layers["collect.seeds_swept"])
	}
	for name := range layers {
		if _, ok := layerUnits[name]; !ok {
			t.Errorf("layer metric %s has no unit", name)
		}
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder()
	op := r.beginOp(1)
	d := r.begin("discover", "")
	r.leaf(3)
	rp := r.begin("replay", "")
	r.end(rp, 5)
	r.end(d, 2)
	r.end(op, 0)
	if len(r.spans) != 3 || r.spans[1].Parent != op || r.spans[2].Parent != d || r.spans[2].Op != 1 {
		t.Fatalf("spans %+v", r.spans)
	}
	if r.spans[1].LeafN != 1 || r.spans[1].LeafNs != 3 || r.spans[2].N != 5 {
		t.Fatalf("work counts %+v", r.spans)
	}
}

func TestOverheadComparesWithinClasses(t *testing.T) {
	layers := newLayers()
	// The traced half drew more slow ops by chance; within each class
	// tracing costs exactly 1 ms.
	overhead(layers,
		map[string][]float64{"fast": {11}, "slow": {101, 101, 101}},
		map[string][]float64{"fast": {10, 10, 10}, "slow": {100}})
	if got := layers["trace.overhead_ms"]; got != 1 {
		t.Fatalf("overhead %v ms, want 1", got)
	}
	if got, want := layers["trace.overhead_share"], 4.0/310; got != want {
		t.Fatalf("overhead share %v, want %v", got, want)
	}
}
