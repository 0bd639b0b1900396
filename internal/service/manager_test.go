package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"aid"
	"aid/internal/trace"
)

// blockingSource is a TraceSource that parks in Collect until released
// (or ctx dies) — the lifecycle tests' stand-in for a long session.
type blockingSource struct {
	release chan struct{}
	entered chan struct{} // closed once Collect is running
	once    sync.Once
}

// errOf returns the session's terminal error (nil for done or
// non-terminal).
func errOf(s *Session) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func newBlockingSource() *blockingSource {
	return &blockingSource{release: make(chan struct{}), entered: make(chan struct{})}
}

func (s *blockingSource) Label() string { return "blocking" }

func (s *blockingSource) Collect(ctx context.Context, spec aid.CollectSpec) (*aid.Traces, error) {
	s.once.Do(func() { close(s.entered) })
	select {
	case <-s.release:
		return nil, fmt.Errorf("blockingSource released without traces")
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// panicSource panics inside Collect — the containment test's crash.
type panicSource struct{}

func (panicSource) Label() string { return "panic" }
func (panicSource) Collect(ctx context.Context, spec aid.CollectSpec) (*aid.Traces, error) {
	panic("session gone rogue")
}

// assertNoTAGT fails unless a daemon report leaves out the TAGT
// baseline: sessions run without it, so neither of its JSON keys nor
// its part of the text summary may appear.
func assertNoTAGT(t *testing.T, label string, report []byte) {
	t.Helper()
	for _, key := range []string{`"tagtInterventions"`, `"tagtWorstCase"`, "TAGT"} {
		if bytes.Contains(report, []byte(key)) {
			t.Errorf("%s: daemon report carries %s", label, key)
		}
	}
}

func waitState(t *testing.T, s *Session, want SessionState) {
	t.Helper()
	select {
	case <-s.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("session %s stuck in %s", s.id, s.State())
	}
	if got := s.State(); got != want {
		t.Fatalf("session %s state %s, want %s (err: %v)", s.id, got, want, errOf(s))
	}
}

// TestManagerByteIdenticalPin is the daemon's correctness anchor: ≥16
// concurrent sessions across ≥4 tenants — every built-in case study,
// plus sessions over an ingested JSON-lines corpus — must produce
// reports byte-identical to direct embedded aid.Pipeline.Run calls,
// scheduler sharing and admission control notwithstanding.
func TestManagerByteIdenticalPin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-study pin is not short")
	}
	const succ, fail = 20, 20
	studies := []string{"npgsql", "kafka", "cosmosdb", "network", "buildandtest", "healthtelemetry"}

	// Embedded baselines, one per study.
	baseline := map[string][]byte{}
	for _, name := range studies {
		p := aid.New(aid.WithCorpusSize(succ, fail), aid.WithBaseline(false))
		rep, err := p.Run(t.Context(), aid.FromStudy(aid.CaseStudyByName(name)))
		if err != nil {
			t.Fatalf("baseline %s: %v", name, err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		baseline[name] = js
	}

	// An offline corpus baseline: save npgsql traces, debug the file.
	tr, err := aid.New(aid.WithCorpusSize(succ, fail)).Collect(t.Context(), aid.FromStudy(aid.CaseStudyByName("npgsql")))
	if err != nil {
		t.Fatal(err)
	}
	var corpusBuf bytes.Buffer
	if err := trace.Encode(&corpusBuf, tr.Set); err != nil {
		t.Fatal(err)
	}
	corpusPath := t.TempDir() + "/corpus.jsonl"
	if err := aid.WriteTraces(corpusPath, tr); err != nil {
		t.Fatal(err)
	}
	corpusRep, err := aid.New(aid.WithCorpusSize(succ, fail), aid.WithBaseline(false)).
		Run(t.Context(), aid.FromTraceFile(corpusPath).ForStudy(aid.CaseStudyByName("npgsql")))
	if err != nil {
		t.Fatal(err)
	}
	corpusBaseline, err := corpusRep.JSON()
	if err != nil {
		t.Fatal(err)
	}

	m := NewManager(Config{SessionBudget: 8, TenantCap: 8, SessionTimeout: 5 * time.Minute})
	defer m.Close()

	// 4 tenants × 4 sessions = 16 concurrent sessions. Tenants t1/t2
	// repeat a study (exercising the shared scheduler memo) and run a
	// corpus session; t3/t4 cover the remaining studies.
	type job struct {
		tenant, study, corpus string
	}
	var jobs []job
	for _, tenant := range []string{"t1", "t2"} {
		if _, err := m.Ingest(tenant, "saved", bytes.NewReader(corpusBuf.Bytes())); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs,
			job{tenant, "npgsql", ""},
			job{tenant, "npgsql", ""}, // duplicate spec → shared memo
			job{tenant, "kafka", ""},
			job{tenant, "npgsql", "saved"},
		)
	}
	jobs = append(jobs,
		job{"t3", "cosmosdb", ""}, job{"t3", "network", ""}, job{"t3", "npgsql", ""}, job{"t3", "kafka", ""},
		job{"t4", "buildandtest", ""}, job{"t4", "healthtelemetry", ""}, job{"t4", "cosmosdb", ""}, job{"t4", "network", ""},
	)
	if len(jobs) < 16 {
		t.Fatalf("want >= 16 sessions, have %d", len(jobs))
	}

	sessions := make([]*Session, len(jobs))
	for i, j := range jobs {
		s, err := m.Start(j.tenant, SessionSpec{Study: j.study, Corpus: j.corpus, Successes: succ, Failures: fail})
		if err != nil {
			t.Fatalf("start %v: %v", j, err)
		}
		sessions[i] = s
	}

	cacheHits := 0
	for i, s := range sessions {
		waitState(t, s, StateDone)
		_, js, err := s.Report()
		if err != nil {
			t.Fatalf("session %s: %v", s.id, err)
		}
		want := baseline[jobs[i].study]
		if jobs[i].corpus != "" {
			want = corpusBaseline
		}
		if !bytes.Equal(js, want) {
			t.Errorf("session %s (%+v): daemon report differs from embedded run", s.id, jobs[i])
		}
		assertNoTAGT(t, s.id, js)
		st := s.Status()
		cacheHits += st.SchedulerCacheHits
		if st.Events == 0 {
			t.Errorf("session %s captured no events", s.id)
		}
	}
	// t1/t2 each ran the npgsql spec twice: the shared scheduler memo
	// must have served at least one intervention outcome from cache.
	if cacheHits == 0 {
		t.Error("duplicate same-tenant sessions produced zero scheduler cache hits")
	}
}

// TestManagerCancelReturnsPromptly: cancelling a running session brings
// it to a terminal cancelled state quickly (one task-drain, not a full
// run), and the event stream completes.
func TestManagerCancelReturnsPromptly(t *testing.T) {
	m := NewManager(Config{SessionBudget: 2, TenantCap: 4})
	defer m.Close()
	src := newBlockingSource()
	s, err := m.Start("acme", SessionSpec{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	<-src.entered
	start := time.Now()
	if !m.Cancel(s.id) {
		t.Fatal("Cancel: unknown session")
	}
	select {
	case <-s.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled session did not return")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancel took %s", d)
	}
	if s.State() != StateCancelled {
		t.Errorf("state %s, want cancelled (err %v)", s.State(), errOf(s))
	}
	if _, _, complete := s.Events(0); !complete {
		t.Error("event stream of a terminal session is not complete")
	}
	if _, _, err := s.Report(); err == nil {
		t.Error("cancelled session returned a report")
	}
}

// TestManagerTimeout: a session deadline brings the session to failed
// with a timeout diagnostic.
func TestManagerTimeout(t *testing.T) {
	m := NewManager(Config{SessionBudget: 2, TenantCap: 4})
	defer m.Close()
	src := newBlockingSource()
	s, err := m.Start("acme", SessionSpec{Source: src, TimeoutMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, StateFailed)
	if err := errOf(s); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("want DeadlineExceeded, got %v", err)
	}
}

// TestManagerPanicContainment: a panicking session fails alone — its
// sibling (same manager, different session) completes normally and the
// manager keeps serving.
func TestManagerPanicContainment(t *testing.T) {
	m := NewManager(Config{SessionBudget: 4, TenantCap: 8})
	defer m.Close()
	bad, err := m.Start("acme", SessionSpec{Source: panicSource{}})
	if err != nil {
		t.Fatal(err)
	}
	good, err := m.Start("acme", SessionSpec{Study: "npgsql", Successes: 5, Failures: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, bad, StateFailed)
	var pe *SessionPanicError
	if !errors.As(errOf(bad), &pe) || pe.Value != "session gone rogue" {
		t.Errorf("want SessionPanicError(session gone rogue), got %v", errOf(bad))
	}
	waitState(t, good, StateDone)
	if _, _, err := good.Report(); err != nil {
		t.Errorf("sibling session: %v", err)
	}
	// The manager still admits work after a panic.
	after, err := m.Start("acme", SessionSpec{Study: "npgsql", Successes: 5, Failures: 5})
	if err != nil {
		t.Fatalf("manager stopped admitting after a panic: %v", err)
	}
	waitState(t, after, StateDone)
}

// TestManagerSaturation: admission beyond the tenant cap fails fast
// with SaturatedError while other tenants stay admissible, and capacity
// returns once sessions finish.
func TestManagerSaturation(t *testing.T) {
	m := NewManager(Config{SessionBudget: 1, TenantCap: 2})
	defer m.Close()
	src1, src2 := newBlockingSource(), newBlockingSource()
	s1, err := m.Start("flood", SessionSpec{Source: src1})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.Start("flood", SessionSpec{Source: src2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Start("flood", SessionSpec{Source: newBlockingSource()})
	var sat *SaturatedError
	if !errors.As(err, &sat) {
		t.Fatalf("want SaturatedError, got %v", err)
	}
	if want := `service: tenant "flood" is at its cap of 2 queued or running sessions; retry after 1s`; sat.Error() != want {
		t.Errorf("saturation error %q, want %q", sat.Error(), want)
	}
	if m.Stats().Saturations != 1 {
		t.Errorf("saturation not counted: %+v", m.Stats())
	}
	// A different tenant is still admissible (it queues for the budget).
	lightSrc := newBlockingSource()
	light, err := m.Start("light", SessionSpec{Source: lightSrc})
	if err != nil {
		t.Fatalf("light tenant refused during flood saturation: %v", err)
	}
	// Finish the flood; capacity must come back.
	m.Cancel(s1.id)
	m.Cancel(s2.id)
	waitState(t, s1, StateCancelled)
	waitState(t, s2, StateCancelled)
	again, err := m.Start("flood", SessionSpec{Study: "npgsql", Successes: 5, Failures: 5})
	if err != nil {
		t.Fatalf("tenant stuck saturated after sessions finished: %v", err)
	}
	m.Cancel(light.id)
	waitState(t, light, StateCancelled)
	waitState(t, again, StateDone)
}

// TestManagerShutdownNoGoroutineLeak: SIGTERM handling in miniature — a
// manager with running and queued sessions drains (force-cancel after
// the grace period) and leaves no goroutines behind.
func TestManagerShutdownNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	m := NewManager(Config{SessionBudget: 1, TenantCap: 4})
	var sessions []*Session
	src := newBlockingSource()
	s, err := m.Start("acme", SessionSpec{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	sessions = append(sessions, s)
	<-src.entered            // the first session holds the budget-1 slot...
	for i := 0; i < 3; i++ { // ...so these three queue behind it
		s, err := m.Start("acme", SessionSpec{Source: newBlockingSource()})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}

	// Grace period far shorter than the blocked sessions: Shutdown must
	// force-cancel and still reap every session goroutine.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown: want DeadlineExceeded (forced drain), got %v", err)
	}
	for _, s := range sessions {
		if !s.State().Terminal() {
			t.Errorf("session %s not terminal after Shutdown: %s", s.id, s.State())
		}
	}
	// Draining managers admit nothing.
	if _, err := m.Start("acme", SessionSpec{Study: "npgsql"}); !errors.As(err, new(*DrainingError)) {
		t.Errorf("Start after Shutdown: want DrainingError, got %v", err)
	}

	// The PR 2 leak idiom: goroutine count returns to the baseline.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
		runtime.GC()
	}
	t.Fatalf("goroutines leaked: %d before, %d after drain", before, runtime.NumGoroutine())
}

// TestManagerCleanDrain: a drain with no deadline pressure finishes
// running sessions and returns nil.
func TestManagerCleanDrain(t *testing.T) {
	m := NewManager(Config{SessionBudget: 2, TenantCap: 4})
	s, err := m.Start("acme", SessionSpec{Study: "npgsql", Successes: 5, Failures: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("clean drain: %v", err)
	}
	if s.State() != StateDone {
		t.Errorf("session %s after clean drain, want done (err %v)", s.State(), errOf(s))
	}
}

// TestManagerMemoInvalidation: replacing or deleting a corpus drops the
// tenant's scheduler memos over it — a session started after a
// re-ingest must not be served intervention outcomes cached against the
// old contents (the Rebind outcome-equivalence contract). The witness
// is the cache accounting: a stale memo serves the whole run from
// cache (the deterministic simulator makes the poisoned reports
// indistinguishable, which is exactly why the contract must be enforced
// structurally), while a fresh memo must execute at least one group.
func TestManagerMemoInvalidation(t *testing.T) {
	study := aid.CaseStudyByName("npgsql")
	collect := func(succ, fail int) []byte {
		t.Helper()
		tr, err := aid.New(aid.WithCorpusSize(succ, fail)).Collect(t.Context(), aid.FromStudy(study))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr.Set); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	baseline := func(corpus []byte) []byte {
		t.Helper()
		path := t.TempDir() + "/c.jsonl"
		if err := os.WriteFile(path, corpus, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := aid.New(aid.WithBaseline(false)).Run(t.Context(), aid.FromTraceFile(path).ForStudy(study))
		if err != nil {
			t.Fatal(err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	c1 := collect(10, 10)
	c2 := collect(20, 20)
	b1, b2 := baseline(c1), baseline(c2)

	m := NewManager(Config{SessionBudget: 2, TenantCap: 8})
	defer m.Close()
	ingest := func(body []byte) {
		t.Helper()
		if _, err := m.Ingest("acme", "c", bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}
	run := func() (*Session, SessionStatus, []byte) {
		t.Helper()
		s, err := m.Start("acme", SessionSpec{Study: "npgsql", Corpus: "c"})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, StateDone)
		_, js, err := s.Report()
		if err != nil {
			t.Fatal(err)
		}
		return s, s.Status(), js
	}

	ingest(c1)
	_, st1, js := run()
	if st1.SchedulerRequests == 0 {
		t.Fatalf("first session made no scheduler requests: %+v", st1)
	}
	if !bytes.Equal(js, b1) {
		t.Error("first session differs from embedded run over corpus 1")
	}
	// Same spec again: fully served from the memo.
	_, st2, _ := run()
	if st2.SchedulerCacheHits != st2.SchedulerRequests || st2.SchedulerRequests == 0 {
		t.Fatalf("memo sharing broken: repeat session %d/%d hits", st2.SchedulerCacheHits, st2.SchedulerRequests)
	}

	// Replace the corpus contents under the same name: the memo must go
	// with it — a fully-cached replay here would reproduce corpus 1's
	// trajectory (and report) against corpus 2's data.
	ingest(c2)
	_, st3, js := run()
	if !bytes.Equal(js, b2) {
		t.Error("post-re-ingest session was served stale scheduler outcomes (report matches the old corpus)")
	}
	if st3.SchedulerCacheHits >= st3.SchedulerRequests {
		t.Errorf("post-re-ingest session fully cache-served (%d/%d): memo not invalidated",
			st3.SchedulerCacheHits, st3.SchedulerRequests)
	}

	// Delete + re-ingest the original contents: again a fresh memo.
	if err := m.DeleteCorpus("acme", "c"); err != nil {
		t.Fatal(err)
	}
	ingest(c1)
	_, st4, js := run()
	if !bytes.Equal(js, b1) {
		t.Error("post-delete session was served stale scheduler outcomes")
	}
	if st4.SchedulerCacheHits >= st4.SchedulerRequests {
		t.Errorf("post-delete session fully cache-served (%d/%d): memo not invalidated",
			st4.SchedulerCacheHits, st4.SchedulerRequests)
	}
}

// TestManagerSessionRetention: terminal sessions beyond RetainSessions
// are evicted oldest-first (their ids stop resolving), live sessions
// never are, and the daemon's session table stays bounded.
func TestManagerSessionRetention(t *testing.T) {
	m := NewManager(Config{SessionBudget: 2, TenantCap: 16, RetainSessions: 2})
	defer m.Close()

	var done []*Session
	for i := 0; i < 5; i++ {
		s, err := m.Start("acme", SessionSpec{Source: panicSource{}})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, StateFailed)
		done = append(done, s)
	}

	// finish() prunes after closing Done; give the bookkeeping a moment.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(m.Sessions("")) == 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	retained := m.Sessions("")
	if len(retained) != 2 {
		t.Fatalf("retained %d terminal sessions, want 2", len(retained))
	}
	if retained[0] != done[3] || retained[1] != done[4] {
		t.Errorf("retention kept the wrong sessions: %s %s", retained[0].id, retained[1].id)
	}
	if _, ok := m.Session(done[0].id); ok {
		t.Error("evicted session still resolves")
	}
	if st := m.Stats(); st.Sessions[StateFailed] != 2 {
		t.Errorf("stats count evicted sessions: %+v", st)
	}

	// A live session is never evicted, no matter how many terminals pass.
	src := newBlockingSource()
	live, err := m.Start("acme", SessionSpec{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	<-src.entered
	for i := 0; i < 3; i++ {
		s, err := m.Start("acme", SessionSpec{Source: panicSource{}})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, StateFailed)
	}
	if _, ok := m.Session(live.id); !ok {
		t.Error("live session was evicted by terminal churn")
	}
	m.Cancel(live.id)
	waitState(t, live, StateCancelled)
}

// TestManagerMemoCap: the per-tenant scheduler memo map is LRU-bounded
// by TenantMemoCap.
func TestManagerMemoCap(t *testing.T) {
	m := NewManager(Config{SessionBudget: 2, TenantCap: 8, TenantMemoCap: 2})
	defer m.Close()
	for seed := int64(1); seed <= 4; seed++ {
		s, err := m.Start("acme", SessionSpec{Study: "npgsql", Successes: 5, Failures: 5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, StateDone)
	}
	m.mu.Lock()
	n := len(m.tenants["acme"].shared)
	var ticks []int64
	for _, memo := range m.tenants["acme"].shared {
		ticks = append(ticks, memo.lastUse)
	}
	m.mu.Unlock()
	if n != 2 {
		t.Fatalf("tenant holds %d memos, want 2 (cap)", n)
	}
	// The survivors are the most recently used (ticks 3 and 4).
	for _, tick := range ticks {
		if tick < 3 {
			t.Errorf("LRU kept a stale memo (tick %d)", tick)
		}
	}
}

// TestManagerValidation: bad specs are rejected at the door with typed
// errors, before any session exists.
func TestManagerValidation(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	if _, err := m.Start("acme", SessionSpec{Study: "nope"}); !errors.As(err, new(*UnknownStudyError)) {
		t.Errorf("unknown study: got %v", err)
	}
	if _, err := m.Start("acme", SessionSpec{}); !errors.As(err, new(*UnknownStudyError)) {
		t.Errorf("empty spec: got %v", err)
	}
	if _, err := m.Start("acme", SessionSpec{Study: "npgsql", Corpus: "missing"}); !isNotFound(err) {
		t.Errorf("missing corpus: got %v", err)
	}
	if _, err := m.Start("bad tenant!", SessionSpec{Study: "npgsql"}); err == nil {
		t.Error("invalid tenant name accepted")
	}
	if st := m.Stats(); len(st.Sessions) != 0 {
		t.Errorf("rejected specs created sessions: %+v", st)
	}
}
