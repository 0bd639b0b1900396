package aid

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
)

// TestSharedSchedulerUnbindsExecutor: a shared scheduler keeps only its
// memo between runs. Once a run's discovery slot is released — after a
// completed run, after concurrent runs, and after a cancelled run — the
// scheduler holds no intervener, so a retained memo does not pin the
// last run's executor (corpus, baseline traces, compiled monitors,
// program). Later runs rebind it, are served from the memo, and report
// the same bytes.
func TestSharedSchedulerUnbindsExecutor(t *testing.T) {
	ctx := context.Background()
	src := FromStudy(CaseStudyByName("npgsql"))
	shared := NewSharedScheduler()
	// run is one pipeline run over the shared memo; it reports the run's
	// SchedulerUsage event.
	run := func(ctx context.Context, observe func(Event)) (*Report, SchedulerUsage, error) {
		var usage SchedulerUsage
		p := New(WithCorpusSize(20, 20), WithSharedScheduler(shared),
			WithObserver(ObserverFunc(func(e Event) {
				if u, ok := e.(SchedulerUsage); ok {
					usage = u
				}
				if observe != nil {
					observe(e)
				}
			})))
		rep, err := p.Run(ctx, src)
		return rep, usage, err
	}
	unbound := func(when string) {
		t.Helper()
		if shared.sched == nil {
			t.Fatalf("%s: no scheduler was built", when)
		}
		if iv := shared.sched.Intervener(); iv != nil {
			t.Fatalf("%s: shared scheduler still holds %T", when, iv)
		}
	}
	reportJSON := func(rep *Report) []byte {
		t.Helper()
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	first, _, err := run(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	unbound("after the first run")
	want := reportJSON(first)

	// Concurrent runs serialize on the discovery slot; each binds its
	// own executor and unbinds it on release.
	const n = 3
	reps := make([]*Report, n)
	usages := make([]SchedulerUsage, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], usages[i], errs[i] = run(ctx, nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if usages[i].CacheHits == 0 {
			t.Fatalf("concurrent run %d: usage %+v, want it served from the memo", i, usages[i])
		}
		if !bytes.Equal(reportJSON(reps[i]), want) {
			t.Fatalf("concurrent run %d: the memo-served report differs from the first run's", i)
		}
	}
	unbound("after concurrent runs")

	// A run cancelled mid-discovery releases the executor too.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	_, _, err = run(cctx, func(e Event) {
		if _, ok := e.(RoundDone); ok {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: got %v, want context.Canceled", err)
	}
	unbound("after a cancelled run")
}
