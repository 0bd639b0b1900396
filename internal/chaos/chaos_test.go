package chaos

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"aid/internal/core"
	"aid/internal/predicate"
)

// echoIntervener returns a fixed observation slice and counts calls.
type echoIntervener struct {
	obs   []core.Observation
	calls int
}

func (e *echoIntervener) Intervene(context.Context, []predicate.ID) ([]core.Observation, error) {
	e.calls++
	out := make([]core.Observation, len(e.obs))
	copy(out, e.obs)
	return out, nil
}

func someObs() []core.Observation {
	return []core.Observation{
		{Failed: true, Observed: core.PredSetOf("P1")},
		{Observed: core.PredSetOf("P2")},
	}
}

// TestWrapZeroRatesTransparent pins the harness's noise-rate-0 contract:
// a zero-rate wrapper is observationally identical to the wrapped
// intervener — no flips, no drops, no reordering.
func TestWrapZeroRatesTransparent(t *testing.T) {
	inner := &echoIntervener{obs: someObs()}
	c := Wrap(inner, Config{Seed: 7})
	for i := 0; i < 10; i++ {
		got, err := c.Intervene(context.Background(), []predicate.ID{"P1"})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, someObs()) {
			t.Fatalf("zero-rate wrapper perturbed observations: %+v", got)
		}
	}
	st := c.Stats()
	if st.Calls != 10 || st.Flips+st.Drops+st.Panics+st.Errors+st.Delays != 0 {
		t.Fatalf("zero-rate stats = %+v", st)
	}
}

// TestWrapDeterministicPerSeed checks the fault stream is a pure
// function of the seed: two wrappers with the same seed and rates
// inject identical fault sequences.
func TestWrapDeterministicPerSeed(t *testing.T) {
	run := func() (Stats, []bool) {
		inner := &echoIntervener{obs: someObs()}
		c := Wrap(inner, Config{Seed: 99, FlipRate: 0.3, DropRate: 0.2, ErrorRate: 0.1})
		var errSeq []bool
		for i := 0; i < 50; i++ {
			_, err := c.Intervene(context.Background(), []predicate.ID{"P1"})
			errSeq = append(errSeq, err != nil)
		}
		return c.Stats(), errSeq
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 || !reflect.DeepEqual(e1, e2) {
		t.Fatalf("same seed diverged: %+v vs %+v", s1, s2)
	}
	if s1.Flips == 0 || s1.Drops == 0 || s1.Errors == 0 {
		t.Fatalf("rates not exercised: %+v", s1)
	}
}

// TestWrapInjectsTransientErrors checks ErrorRate surfaces typed
// *TransientError values the retry layer can match.
func TestWrapInjectsTransientErrors(t *testing.T) {
	inner := &echoIntervener{obs: someObs()}
	c := Wrap(inner, Config{Seed: 3, ErrorRate: 1})
	_, err := c.Intervene(context.Background(), []predicate.ID{"P1"})
	var te *TransientError
	if !errors.As(err, &te) {
		t.Fatalf("got %T (%v), want *TransientError", err, err)
	}
	if inner.calls != 0 {
		t.Fatal("error injection must preempt the wrapped intervener")
	}
}

// TestWrapInjectsPanics checks PanicRate actually panics (the robust
// layer above recovers it; the raw wrapper must not).
func TestWrapInjectsPanics(t *testing.T) {
	inner := &echoIntervener{obs: someObs()}
	c := Wrap(inner, Config{Seed: 3, PanicRate: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("want injected panic")
		}
	}()
	c.Intervene(context.Background(), []predicate.ID{"P1"}) //nolint:errcheck
}

// TestWrapDelayCancellable checks a delay in flight yields to context
// cancellation instead of sleeping it out.
func TestWrapDelayCancellable(t *testing.T) {
	inner := &echoIntervener{obs: someObs()}
	c := Wrap(inner, Config{Seed: 3, MaxDelay: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Intervene(ctx, []predicate.ID{"P1"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("delay did not yield to cancellation")
	}
}
