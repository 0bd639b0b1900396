package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"aid/internal/predicate"
)

// batchWorld adapts truthWorld to BatchIntervener, counting
// InterveneBatch calls so tests can check the scheduler never makes
// one.
type batchWorld struct {
	w          *truthWorld
	batchCalls int
}

func (b *batchWorld) Intervene(ctx context.Context, preds []predicate.ID) ([]Observation, error) {
	return b.w.Intervene(ctx, preds)
}

func (b *batchWorld) InterveneBatch(ctx context.Context, groups [][]predicate.ID) ([][]Observation, error) {
	b.batchCalls++
	out := make([][]Observation, len(groups))
	for i, g := range groups {
		obs, err := b.w.Intervene(ctx, g)
		if err != nil {
			return nil, err
		}
		out[i] = obs
	}
	return out, nil
}

func chainWorld() *truthWorld {
	return &truthWorld{
		parent: map[predicate.ID]predicate.ID{"A": "", "B": "A", "C": "B", "D": "C"},
		last:   "C",
	}
}

func TestSchedulerMemoizesOutcomes(t *testing.T) {
	w := chainWorld()
	s := NewScheduler(w, SchedulerConfig{})
	ctx := context.Background()

	obs1, m1, err := s.Outcome(ctx, Request{Preds: []predicate.ID{"A", "B"}})
	if err != nil {
		t.Fatal(err)
	}
	if m1.CacheHit {
		t.Error("first request reported a cache hit")
	}
	// Same forced set, different order: must be served from the cache.
	obs2, m2, err := s.Outcome(ctx, Request{Preds: []predicate.ID{"B", "A"}})
	if err != nil {
		t.Fatal(err)
	}
	if !m2.CacheHit {
		t.Error("repeated group was re-executed")
	}
	if !reflect.DeepEqual(obs1, obs2) {
		t.Error("cached observations differ from executed ones")
	}
	if w.calls != 1 {
		t.Fatalf("intervener called %d times, want 1", w.calls)
	}
	st := s.Stats()
	if st.Requests != 2 || st.Executions != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 2 requests / 1 execution / 1 hit", st)
	}
}

func TestSchedulerNoCache(t *testing.T) {
	w := chainWorld()
	s := NewScheduler(w, SchedulerConfig{NoCache: true})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, m, err := s.Outcome(ctx, Request{Preds: []predicate.ID{"A"}}); err != nil {
			t.Fatal(err)
		} else if m.CacheHit {
			t.Fatal("NoCache scheduler reported a cache hit")
		}
	}
	if w.calls != 3 {
		t.Fatalf("intervener called %d times, want 3", w.calls)
	}
}

// TestDiscoverDeterministicAcrossWorkers pins that the scheduler asks
// for one group at a time: discovery over a batch-capable intervener
// never calls InterveneBatch and yields the same Result as over a plain
// one.
func TestDiscoverDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 60; i++ {
		dag, w, _ := randomWorld(rng)
		seed := rng.Int63()
		variants := []func(int64) Options{AIDOptions, AIDPOptions, AIDPBOptions}
		for vi, variant := range variants {
			plain, err := Discover(context.Background(), dag, &truthWorld{parent: w.parent, last: w.last}, variant(seed))
			if err != nil {
				t.Fatal(err)
			}
			bw := &batchWorld{w: &truthWorld{parent: w.parent, last: w.last}}
			batched, err := Discover(context.Background(), dag, bw, variant(seed))
			if err != nil {
				t.Fatal(err)
			}
			if bw.batchCalls != 0 {
				t.Fatalf("world %d variant %d: scheduler made %d InterveneBatch calls, want 0", i, vi, bw.batchCalls)
			}
			if !reflect.DeepEqual(plain, batched) {
				t.Fatalf("world %d variant %d: results differ between plain and batch-capable interveners:\nplain:   %+v\nbatched: %+v", i, vi, plain, batched)
			}
		}
	}
}

// TestDiscoverSharedSchedulerAcrossVariants checks a scheduler shared
// across the three ablation variants serves repeated groups from its
// cache without changing any variant's Result.
func TestDiscoverSharedSchedulerAcrossVariants(t *testing.T) {
	d, w := paperWorld(t)
	shared := NewScheduler(w, SchedulerConfig{})
	variants := []func(int64) Options{AIDOptions, AIDPOptions, AIDPBOptions}
	for vi, variant := range variants {
		fresh, err := Discover(context.Background(), d, w, variant(3))
		if err != nil {
			t.Fatal(err)
		}
		opts := variant(3)
		opts.Scheduler = shared
		got, err := Discover(context.Background(), d, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, got) {
			t.Fatalf("variant %d: shared-scheduler result differs from fresh run", vi)
		}
	}
	st := shared.Stats()
	if st.CacheHits == 0 {
		t.Fatal("no cache hits across variants — sharing is not effective")
	}
	if st.Executions != st.Requests-st.CacheHits {
		t.Fatalf("stats inconsistent: %+v", st)
	}
}

// errOnceWorld fails the first Intervene call, then behaves normally —
// the shape of a cancelled or transiently failing intervener.
type errOnceWorld struct {
	w      *truthWorld
	failed bool
}

func (e *errOnceWorld) Intervene(ctx context.Context, preds []predicate.ID) ([]Observation, error) {
	if !e.failed {
		e.failed = true
		return nil, errors.New("transient")
	}
	return e.w.Intervene(ctx, preds)
}

// TestSchedulerDoesNotMemoizeErrors: a failed direct request (e.g. a
// cancelled context) must not be served from the cache to a later run
// over a shared scheduler.
func TestSchedulerDoesNotMemoizeErrors(t *testing.T) {
	s := NewScheduler(&errOnceWorld{w: chainWorld()}, SchedulerConfig{})
	ctx := context.Background()
	req := Request{Preds: []predicate.ID{"A"}}
	if _, _, err := s.Outcome(ctx, req); err == nil {
		t.Fatal("first request should fail")
	}
	obs, m, err := s.Outcome(ctx, req)
	if err != nil {
		t.Fatalf("second request served the stale error: %v", err)
	}
	if len(obs) == 0 || m.CacheHit {
		t.Fatalf("second request not re-executed: obs=%d meta=%+v", len(obs), m)
	}
	// And the successful outcome is memoized as usual.
	if _, m, err := s.Outcome(ctx, req); err != nil || !m.CacheHit {
		t.Fatalf("third request: err=%v meta=%+v, want cache hit", err, m)
	}
}

func TestSchedulerNondeterministic(t *testing.T) {
	w := chainWorld()
	s := NewScheduler(w, SchedulerConfig{Nondeterministic: true})
	if s.Deterministic() {
		t.Fatal("nondeterministic intervener reported deterministic")
	}
	// Implies NoCache: every request re-executes.
	for i := 0; i < 2; i++ {
		if _, m, err := s.Outcome(context.Background(), Request{Preds: []predicate.ID{"A"}}); err != nil || m.CacheHit {
			t.Fatalf("request %d: err=%v meta=%+v", i, err, m)
		}
	}
	if w.calls != 2 {
		t.Fatalf("intervener called %d times, want 2", w.calls)
	}
	// NoCache alone keeps the deterministic declaration.
	if !NewScheduler(w, SchedulerConfig{NoCache: true}).Deterministic() {
		t.Fatal("NoCache-only scheduler must stay deterministic")
	}
}
