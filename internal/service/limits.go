package service

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// retryAfter is the backoff a 429 asks for, in its Retry-After header
// and its error text.
const retryAfter = time.Second

// SaturatedError reports that a tenant already has Config.TenantCap
// sessions queued or running. Manager.Start refuses the session and the
// HTTP layer maps the refusal to 429 with a Retry-After header —
// admission is refused at the door, never queued unboundedly.
type SaturatedError struct {
	// Tenant is the refused tenant.
	Tenant string
	// Cap is the tenant's cap on queued plus running sessions.
	Cap int
}

func (e *SaturatedError) Error() string {
	return fmt.Sprintf("service: tenant %q is at its cap of %d queued or running sessions; retry after %s", e.Tenant, e.Cap, retryAfter)
}

// Limiter is the daemon's admission control: a weighted semaphore over
// a bounded global session budget, shared fairly across tenants.
//
// Fairness is round-robin across tenants with waiters: when capacity
// frees, the grant goes to the next tenant in rotation, not the longest
// queue — a tenant flooding its queue gets one grant per rotation like
// everyone else, so a light tenant's wait is bounded by the number of
// active tenants (times one session), not by the flooder's backlog.
// A tenant entering the rotation is inserted at the cursor (served on
// the next free slot), so a bursty tenant's first session pays at most
// one in-flight session of wait. Within one tenant, waiters are FIFO.
//
// Each acquisition carries a weight (a session's worker demand) against
// the global budget, so one wide session and several narrow ones are
// accounted the same way. The limiter does not bound its queues:
// Manager.Start caps each tenant's queued plus running sessions before
// any of them reaches Acquire.
type Limiter struct {
	budget int

	mu   sync.Mutex
	free int
	// q holds each tenant's FIFO of waiters; ring is the round-robin
	// rotation of tenants that currently have waiters.
	q    map[string][]*waiter
	ring []string
	next int
}

// waiter is one queued acquisition. ready is closed exactly once, under
// the limiter lock, when the grant is made; granted distinguishes a
// grant from a cancellation race.
type waiter struct {
	tenant  string
	weight  int
	ready   chan struct{}
	granted bool
}

// NewLimiter builds a limiter with the given global weight budget,
// clamped to at least 1.
func NewLimiter(budget int) *Limiter {
	budget = max(budget, 1)
	return &Limiter{budget: budget, free: budget, q: map[string][]*waiter{}}
}

// Acquire claims weight units of the global budget for tenant, waiting
// fairly behind other tenants when saturated. It returns a release
// function, or ctx.Err() when ctx dies while waiting. Weights above the
// global budget are clamped so an oversized request degrades to an
// exclusive session instead of deadlocking.
func (l *Limiter) Acquire(ctx context.Context, tenant string, weight int) (release func(), err error) {
	if weight < 1 {
		weight = 1
	}
	if weight > l.budget {
		weight = l.budget
	}

	l.mu.Lock()
	// Fast path only when nobody is queued: a free slot must not let a
	// newcomer jump the rotation.
	if len(l.ring) == 0 && l.free >= weight {
		l.free -= weight
		l.mu.Unlock()
		return func() { l.release(weight) }, nil
	}
	w := &waiter{tenant: tenant, weight: weight, ready: make(chan struct{})}
	if len(l.q[tenant]) == 0 {
		// A tenant entering the rotation is inserted at the cursor, so
		// it is served on the next free slot instead of waiting a full
		// cycle behind tenants that were already granted this rotation —
		// a bursty light tenant pays one in-flight session of latency,
		// while steady tenants still alternate (no starvation: after its
		// grant the newcomer rotates like everyone else).
		l.ring = append(l.ring, "")
		copy(l.ring[l.next+1:], l.ring[l.next:])
		l.ring[l.next] = tenant
	}
	l.q[tenant] = append(l.q[tenant], w)
	// A new waiter may be grantable immediately (capacity free but the
	// rotation pointed elsewhere with empty queues).
	l.grantLocked()
	l.mu.Unlock()

	select {
	case <-w.ready:
		return func() { l.release(weight) }, nil
	case <-ctx.Done():
		l.mu.Lock()
		if w.granted {
			// The grant raced the cancellation: the capacity is ours,
			// hand it straight back.
			l.freeLocked(weight)
			l.mu.Unlock()
			return nil, ctx.Err()
		}
		l.dropLocked(w)
		l.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Waiting returns the tenant's current queue length.
func (l *Limiter) Waiting(tenant string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.q[tenant])
}

// release returns weight units and hands them to waiters.
func (l *Limiter) release(weight int) {
	l.mu.Lock()
	l.freeLocked(weight)
	l.mu.Unlock()
}

func (l *Limiter) freeLocked(weight int) {
	l.free += weight
	if l.free > l.budget {
		l.free = l.budget
	}
	l.grantLocked()
}

// grantLocked hands free capacity to waiters, one grant per tenant per
// rotation step. When the rotation's next head-of-queue needs more than
// the remaining capacity, granting stops — capacity may idle briefly,
// but a wide session is never starved by narrow ones slipping past it.
func (l *Limiter) grantLocked() {
	for len(l.ring) > 0 {
		if l.next >= len(l.ring) {
			l.next = 0
		}
		tenant := l.ring[l.next]
		queue := l.q[tenant]
		w := queue[0]
		if w.weight > l.free {
			return
		}
		l.free -= w.weight
		w.granted = true
		close(w.ready)
		if len(queue) == 1 {
			delete(l.q, tenant)
			l.ring = append(l.ring[:l.next], l.ring[l.next+1:]...)
			// l.next now points at the tenant after the removed one;
			// leaving it is exactly the rotation step.
		} else {
			l.q[tenant] = queue[1:]
			l.next++
		}
	}
}

// dropLocked removes a cancelled waiter from its queue.
func (l *Limiter) dropLocked(w *waiter) {
	queue := l.q[w.tenant]
	for i, cand := range queue {
		if cand == w {
			queue = append(queue[:i], queue[i+1:]...)
			break
		}
	}
	if len(queue) == 0 {
		delete(l.q, w.tenant)
		for i, t := range l.ring {
			if t == w.tenant {
				l.ring = append(l.ring[:i], l.ring[i+1:]...)
				if l.next > i {
					l.next--
				}
				break
			}
		}
	} else {
		l.q[w.tenant] = queue
	}
}
