package service

import (
	"bytes"
	"os"
	"testing"

	"aid"
	"aid/internal/trace"
)

// TestManagerResultCache covers the opt-in session result cache
// (Config.ResultCacheCap): a repeat session is served whole from the
// cache (byte-identical report and replayed event stream, zero
// scheduler traffic), served reports are detached copies a client
// cannot poison, corpus replacement invalidates exactly the entries
// computed over it, and the cache is LRU-bounded at the cap.
func TestManagerResultCache(t *testing.T) {
	// kafka's reports differ between the two corpus sizes, so serving
	// the stale result shows in the bytes.
	study := aid.CaseStudyByName("kafka")
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
	c1 := collect(10, 10)
	c2 := collect(20, 20)
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
	b1, b2 := baseline(c1), baseline(c2)
	if bytes.Equal(b1, b2) {
		t.Fatal("the two corpora give one report: a stale cached result would pass for a fresh one")
	}

	m := NewManager(Config{SessionBudget: 2, TenantCap: 8, ResultCacheCap: 1})
	defer m.Close()
	ingest := func(body []byte) {
		t.Helper()
		if _, err := m.Ingest("acme", "c", bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}
	run := func(spec SessionSpec) (*Session, SessionStatus, []byte) {
		t.Helper()
		s, err := m.Start("acme", spec)
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
	specA := SessionSpec{Study: "kafka", Corpus: "c"}

	ingest(c1)
	s1, st1, js1 := run(specA)
	if st1.ResultCacheHit {
		t.Fatalf("first session claims a result-cache hit: %+v", st1)
	}
	if st1.SchedulerRequests == 0 {
		t.Fatalf("first session made no scheduler requests: %+v", st1)
	}
	if !bytes.Equal(js1, b1) {
		t.Error("first session differs from the embedded run over corpus 1")
	}

	// Repeat: served whole from the cache — same bytes, same event
	// stream, no scheduler traffic.
	s2, st2, js2 := run(specA)
	if !st2.ResultCacheHit {
		t.Fatalf("repeat session not served from the result cache: %+v", st2)
	}
	if st2.SchedulerRequests != 0 || st2.SchedulerCacheHits != 0 {
		t.Errorf("cache-served session reports scheduler traffic: %+v", st2)
	}
	if !bytes.Equal(js1, js2) {
		t.Error("cache-served report differs from the original")
	}
	lines1, _, _ := s1.Events(0)
	lines2, _, complete := s2.Events(0)
	if !complete || len(lines1) != len(lines2) {
		t.Errorf("cache-served event stream: %d lines (complete=%v), original has %d",
			len(lines2), complete, len(lines1))
	}

	// A served report is a detached copy: scribbling over it must not
	// reach the cache or later served sessions.
	rep2, _, err := s2.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Path) > 0 {
		rep2.Path[0] = "poisoned"
	}
	rep2.Path = append(rep2.Path, "poisoned")
	for i := range rep2.Rounds {
		if len(rep2.Rounds[i].Intervened) > 0 {
			rep2.Rounds[i].Intervened[0] = "poisoned"
		}
	}
	_, st3, js3 := run(specA)
	if !st3.ResultCacheHit {
		t.Fatalf("third session not served from the result cache: %+v", st3)
	}
	if !bytes.Equal(js1, js3) {
		t.Error("mutating a served report poisoned the cache")
	}

	// NoShare opts out of the cache like it opts out of the memo.
	_, stNS, _ := run(SessionSpec{Study: "kafka", Corpus: "c", NoShare: true})
	if stNS.ResultCacheHit {
		t.Errorf("NoShare session served from the result cache: %+v", stNS)
	}

	// Replacing the corpus drops the entry: serving the old result would
	// replay corpus 1's whole trajectory against corpus 2's data.
	ingest(c2)
	_, st4, js4 := run(specA)
	if st4.ResultCacheHit {
		t.Fatalf("post-re-ingest session served a stale cached result: %+v", st4)
	}
	if !bytes.Equal(js4, b2) {
		t.Error("post-re-ingest report differs from the embedded run over corpus 2")
	}
	_, st5, js5 := run(specA)
	if !st5.ResultCacheHit || !bytes.Equal(js4, js5) {
		t.Errorf("repeat over the new corpus not cache-served: %+v", st5)
	}

	// LRU bound (cap 1): caching a different spec evicts specA's entry.
	specB := SessionSpec{Study: "kafka", Corpus: "c", Replays: 2}
	if _, stB, _ := run(specB); stB.ResultCacheHit {
		t.Fatalf("first specB session claims a result-cache hit: %+v", stB)
	}
	if _, st6, _ := run(specA); st6.ResultCacheHit {
		t.Errorf("cache cap 1 retained more than one entry: %+v", st6)
	}
}

// TestServeSessionWarmAllocs gates the daemon's warm-path allocation
// budget: with the result cache on, a repeat session — admission,
// cache serve, event replay, report detach, terminal bookkeeping —
// must cost at most 100 allocations end to end. Takes the best of
// three measurements: AllocsPerRun across the session goroutine is
// mildly noisy, a real regression (re-running the pipeline, or
// re-marshaling the report) costs thousands.
func TestServeSessionWarmAllocs(t *testing.T) {
	m := NewManager(Config{SessionBudget: 2, TenantCap: 8, ResultCacheCap: 4})
	defer m.Close()
	spec := SessionSpec{Study: "npgsql", Successes: 12, Failures: 12}

	serve := func() *Session {
		s, err := m.Start("acme", spec)
		if err != nil {
			t.Fatal(err)
		}
		<-s.Done()
		if _, _, err := s.Report(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	serve() // populate the cache
	if st := serve().Status(); !st.ResultCacheHit {
		t.Fatalf("warmup repeat session not served from the result cache: %+v", st)
	}

	best := testing.AllocsPerRun(10, func() { serve() })
	for attempt := 0; attempt < 2 && best > 100; attempt++ {
		if v := testing.AllocsPerRun(10, func() { serve() }); v < best {
			best = v
		}
	}
	if best > 100 {
		t.Errorf("warm cached session costs %.0f allocs/op, want <= 100", best)
	}
}

// BenchmarkServeSession measures the daemon's warm steady state: a
// repeat session on a warmed result cache, end to end through Start,
// admission, cache serve, and report retrieval. cmd/benchjson records
// it in BENCH_pipeline.json alongside the pipeline figures.
func BenchmarkServeSession(b *testing.B) {
	m := NewManager(Config{SessionBudget: 2, TenantCap: 8, ResultCacheCap: 4})
	defer m.Close()
	spec := SessionSpec{Study: "npgsql", Successes: 12, Failures: 12}

	warm, err := m.Start("acme", spec)
	if err != nil {
		b.Fatal(err)
	}
	<-warm.Done()
	if warm.State() != StateDone {
		b.Fatalf("warmup session %s: %v", warm.State(), errOf(warm))
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := m.Start("acme", spec)
		if err != nil {
			b.Fatal(err)
		}
		<-s.Done()
		if _, _, err := s.Report(); err != nil {
			b.Fatal(err)
		}
		if !s.Status().ResultCacheHit {
			b.Fatal("repeat session not served from the result cache")
		}
	}
}
