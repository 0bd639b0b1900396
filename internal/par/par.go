// Package par is the repo's shared parallel-execution engine: a
// deterministic ordered fan-out used by the trace-collection sweeps
// (casestudy), the Fig. 8 synthetic sweep (synthetic), and intervention
// replay (inject).
//
// Determinism contract: tasks are claimed in index order, results are
// returned in index order, and on failure the error with the lowest
// index is reported — exactly the error a sequential loop over the same
// deterministic task function would have hit first. Output is therefore
// bit-identical whether the pool runs one worker or GOMAXPROCS workers.
//
// Cancellation contract: workers check the context before claiming each
// task, so a cancelled Map returns ctx.Err() within one task-drain
// (in-flight tasks run to completion, no new tasks start, no goroutines
// leak). A task error always takes precedence over cancellation when
// both occur, because the task error is the deterministic outcome; a
// bare ctx.Err() is returned only when cancellation alone stopped the
// sweep.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count option: values <= 0 mean GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// A PanicError wraps a panic recovered from a pool task so one
// panicking worker surfaces as an ordinary error instead of killing the
// process, and the pool drains cleanly.
type PanicError struct {
	// Index is the task index that panicked.
	Index int
	// Value is the recovered panic value.
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: task %d panicked: %v", e.Index, e.Value)
}

// Map runs fn(0) … fn(n-1) across up to `workers` goroutines (<= 0 =
// GOMAXPROCS) and returns the n results in index order.
//
// fn must be deterministic per index and must not depend on shared
// mutable state; under that contract Map's result is identical to the
// sequential loop. When any task returns an error (or panics — panics
// are recovered into *PanicError), no new tasks start, in-flight tasks
// run to completion, and Map returns the lowest-index error: because
// tasks are claimed in ascending index order, that is provably the same
// error the sequential loop would have returned.
//
// ctx cancellation stops the sweep before the next task claim; Map then
// returns ctx.Err() unless some task had already failed, in which case
// the lowest-index task error wins.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		// Degenerate pool: run inline, stopping at the first error like
		// the pre-pool sequential code did.
		out := make([]T, n)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := run1(i, fn)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var stop atomic.Bool
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := run1(i, fn)
				if err != nil {
					errs[i] = err
					stop.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if cancelled.Load() {
		return nil, ctx.Err()
	}
	return out, nil
}

// run1 executes one task, converting a panic into a *PanicError.
func run1[T any](i int, fn func(i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r}
		}
	}()
	return fn(i)
}
