package canon

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"aid/internal/trace"
)

func span(method string, th trace.ThreadID, start, end trace.Time) trace.MethodCall {
	return trace.MethodCall{Method: method, Thread: th, Start: start, End: end}
}

func TestSortCallsAndInstances(t *testing.T) {
	e := trace.Execution{Calls: []trace.MethodCall{
		span("B", 2, 20, 30),
		span("A", 1, 0, 10),
		span("A", 3, 15, 18),
		span("A", 2, 0, 5), // same start as A/1: thread breaks tie
	}}
	Canonicalize(&e)
	got := make([]string, 0, 4)
	for _, c := range e.Calls {
		got = append(got, c.Method)
	}
	want := []string{"A", "A", "A", "B"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sorted methods = %v, want %v", got, want)
	}
	if e.Calls[0].Thread != 1 || e.Calls[1].Thread != 2 {
		t.Fatalf("tie-break by thread failed: %+v", e.Calls[:2])
	}
	// Instances number per-method in start order.
	if e.Calls[0].Instance != 0 || e.Calls[1].Instance != 1 || e.Calls[2].Instance != 2 {
		t.Fatalf("instances of A = %d,%d,%d, want 0,1,2",
			e.Calls[0].Instance, e.Calls[1].Instance, e.Calls[2].Instance)
	}
	if e.Calls[3].Instance != 0 {
		t.Fatalf("instance of B = %d, want 0", e.Calls[3].Instance)
	}
}

// Property: Add canonicalizes — after Add, calls are sorted by start
// time and instances number per method in order.
func TestAddCanonicalizesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	prop := func() bool {
		s := &trace.Set{}
		e := trace.Execution{}
		for c := rng.Intn(6); c > 0; c-- {
			start := trace.Time(rng.Intn(100))
			e.Calls = append(e.Calls, trace.MethodCall{
				Method:   "M" + string(rune('0'+rng.Intn(5))),
				Instance: rng.Intn(4),
				Thread:   trace.ThreadID(rng.Intn(3)),
				Start:    start,
				End:      start + trace.Time(1+rng.Intn(50)),
			})
		}
		Add(s, e)
		got := &s.Executions[0]
		seen := map[string]int{}
		for i := range got.Calls {
			if i > 0 && got.Calls[i].Start < got.Calls[i-1].Start {
				return false
			}
			if got.Calls[i].Instance != seen[got.Calls[i].Method] {
				return false
			}
			seen[got.Calls[i].Method]++
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
