package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestLimiterBudget: acquisitions beyond the budget wait; release hands
// the slot over.
func TestLimiterBudget(t *testing.T) {
	l := NewLimiter(2)
	ctx := context.Background()
	r1, err := l.Acquire(ctx, "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := l.Acquire(ctx, "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		r3, err := l.Acquire(ctx, "a", 1)
		if err != nil {
			t.Error(err)
			close(acquired)
			return
		}
		close(acquired)
		r3()
	}()
	select {
	case <-acquired:
		t.Fatal("third acquire should wait at budget 2")
	case <-time.After(20 * time.Millisecond):
	}
	r1()
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("release did not hand the slot to the waiter")
	}
	r2()
}

// TestLimiterFairness: with a flooding tenant holding a deep queue, a
// light tenant's single waiter is granted on the next rotation, not
// after the flood drains.
func TestLimiterFairness(t *testing.T) {
	l := NewLimiter(1)
	ctx := context.Background()
	release, err := l.Acquire(ctx, "flood", 1)
	if err != nil {
		t.Fatal(err)
	}

	var order []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	grab := func(tenant string) {
		defer wg.Done()
		r, err := l.Acquire(ctx, tenant, 1)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		order = append(order, tenant)
		mu.Unlock()
		r()
	}
	// Queue the flood first so FIFO-without-fairness would drain it all
	// before the light tenant.
	for range 8 {
		wg.Add(1)
		go grab("flood")
	}
	for i := 0; l.Waiting("flood") < 8; i++ {
		if i > 400 {
			t.Fatal("flood never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}
	wg.Add(1)
	go grab("light")
	for i := 0; l.Waiting("light") < 1; i++ {
		if i > 400 {
			t.Fatal("light waiter never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	release()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	pos := -1
	for i, tenant := range order {
		if tenant == "light" {
			pos = i
			break
		}
	}
	// Round-robin: light must be granted within the first rotation (one
	// flood grant may precede it), never behind the whole flood.
	if pos < 0 || pos > 1 {
		t.Fatalf("light tenant granted at position %d of %v; want within one rotation", pos, order)
	}
}

// TestLimiterCancelWhileWaiting: a cancelled waiter leaves the queue and
// the capacity flows to the next waiter.
func TestLimiterCancelWhileWaiting(t *testing.T) {
	l := NewLimiter(1)
	ctx := context.Background()
	release, err := l.Acquire(ctx, "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		_, err := l.Acquire(wctx, "a", 1)
		errc <- err
	}()
	for i := 0; l.Waiting("a") < 1; i++ {
		if i > 200 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if l.Waiting("a") != 0 {
		t.Errorf("cancelled waiter still queued")
	}
	release()
	// Capacity must be whole again: the grant is immediate.
	tctx, stop := context.WithTimeout(ctx, time.Second)
	defer stop()
	r, err := l.Acquire(tctx, "a", 1)
	if err != nil {
		t.Fatalf("capacity lost after cancellation: %v", err)
	}
	r()
}

// TestLimiterWeights: weights above the budget clamp (no deadlock), and
// a wide waiter blocks narrow ones from slipping past it forever.
func TestLimiterWeights(t *testing.T) {
	l := NewLimiter(4)
	ctx := context.Background()
	release, err := l.Acquire(ctx, "a", 99) // clamps to 4
	if err != nil {
		t.Fatal(err)
	}
	tctx, stop := context.WithTimeout(ctx, 20*time.Millisecond)
	defer stop()
	if r, err := l.Acquire(tctx, "a", 1); err == nil {
		r()
		t.Fatal("budget should be exhausted by the clamped wide acquire")
	}
	release()
	r, err := l.Acquire(ctx, "a", 4)
	if err != nil {
		t.Fatal(err)
	}
	r()
}
