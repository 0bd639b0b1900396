package core

import (
	"context"
	"errors"
	"testing"

	"aid/internal/predicate"
)

// TestDiscoverContextCancelled cancels the context from inside the
// first intervention: Discover must stop before the next round and
// return context.Canceled, leaving no further intervener calls.
func TestDiscoverContextCancelled(t *testing.T) {
	d, w := paperWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	iv := intervenerFunc(func(ivCtx context.Context, preds []predicate.ID) ([]Observation, error) {
		calls++
		cancel()
		return w.Intervene(ivCtx, preds)
	})
	_, err := Discover(ctx, d, iv, AIDOptions(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("intervener called %d times after cancellation, want exactly 1", calls)
	}
}

// TestDiscoverPreCancelled checks an already-cancelled context performs
// no interventions at all.
func TestDiscoverPreCancelled(t *testing.T) {
	d, _ := paperWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	iv := intervenerFunc(func(context.Context, []predicate.ID) ([]Observation, error) {
		t.Error("intervener called under a cancelled context")
		return nil, nil
	})
	if _, err := Discover(ctx, d, iv, AIDOptions(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
