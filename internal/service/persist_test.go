package service

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"aid"
	"aid/internal/chaos"
	"aid/internal/durable"
	"aid/internal/trace"
)

// persistFixture collects a small corpus for the named study and
// computes the offline baseline report over it — the byte-identity
// anchor every persistence test compares against.
func persistFixture(t *testing.T, study string, succ, fail int) (corpus, baseline []byte) {
	t.Helper()
	cs := aid.CaseStudyByName(study)
	tr, err := aid.New(aid.WithCorpusSize(succ, fail)).Collect(t.Context(), aid.FromStudy(cs))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr.Set); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := aid.New().Run(t.Context(), aid.FromTraceFile(path).ForStudy(cs))
	if err != nil {
		t.Fatal(err)
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), js
}

// eventRecorder captures manager-level observer events.
type eventRecorder struct {
	mu     sync.Mutex
	events []aid.Event
}

func (r *eventRecorder) OnEvent(e aid.Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *eventRecorder) recovered() (aid.StateRecovered, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.events {
		if sr, ok := e.(aid.StateRecovered); ok {
			return sr, true
		}
	}
	return aid.StateRecovered{}, false
}

func drain(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestManagerRestartWarmMemo is the restart e2e: ingest → session →
// stop → restart over the same state directory → the same spec is
// served warm (schedulerCacheHits > 0, report byte-identical to the
// offline baseline). Both stop paths are exercised: a hard stop
// (Close — recovery replays the append journal) and a graceful drain
// (Shutdown — recovery loads the compacted snapshot).
func TestManagerRestartWarmMemo(t *testing.T) {
	corpus, baseline := persistFixture(t, "npgsql", 8, 8)
	stateDir := t.TempDir()
	dataDir := t.TempDir()

	newMgr := func(rec *eventRecorder) *Manager {
		t.Helper()
		store, err := NewFileStore(dataDir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Store: store, SessionBudget: 2, TenantCap: 8, PersistDir: stateDir}
		if rec != nil {
			cfg.Observer = rec
		}
		return NewManager(cfg)
	}
	run := func(m *Manager) (SessionStatus, []byte) {
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
		return s.Status(), js
	}

	// Generation 1: cold, populates the memo, dies hard (no drain).
	m1 := newMgr(nil)
	if _, err := m1.Ingest("acme", "c", bytes.NewReader(corpus)); err != nil {
		t.Fatal(err)
	}
	st1, js1 := run(m1)
	if st1.SchedulerRequests == 0 || st1.SchedulerCacheHits != 0 {
		t.Fatalf("cold session stats off: %+v", st1)
	}
	if !bytes.Equal(js1, baseline) {
		t.Fatal("cold session report differs from offline baseline")
	}
	m1.Close()

	// Generation 2: restarts warm from the append journal.
	rec2 := &eventRecorder{}
	m2 := newMgr(rec2)
	st := m2.Stats()
	if st.Recovery == nil || st.Recovery.Error != "" {
		t.Fatalf("recovery missing or failed: %+v", st.Recovery)
	}
	if st.Recovery.Memos != 1 || st.Recovery.MemoEntries == 0 || st.Recovery.RecordsKept == 0 {
		t.Fatalf("hard-stop recovery restored nothing: %+v", st.Recovery)
	}
	if sr, ok := rec2.recovered(); !ok {
		t.Error("no StateRecovered event emitted")
	} else if sr.Memos != st.Recovery.Memos || sr.MemoEntries != st.Recovery.MemoEntries {
		t.Errorf("StateRecovered event %+v disagrees with stats %+v", sr, st.Recovery)
	}
	st2, js2 := run(m2)
	if st2.SchedulerCacheHits == 0 || st2.SchedulerCacheHits != st2.SchedulerRequests {
		t.Fatalf("restarted daemon not warm: %d/%d cache hits", st2.SchedulerCacheHits, st2.SchedulerRequests)
	}
	if !bytes.Equal(js2, baseline) {
		t.Fatal("warm-restart report differs from baseline")
	}
	drain(t, m2) // graceful: compacts the log to one record per memo

	// Generation 3: restarts warm from the compacted snapshot.
	m3 := newMgr(nil)
	st = m3.Stats()
	if st.Recovery == nil || st.Recovery.Memos != 1 || st.Recovery.RecordsKept != 1 {
		t.Fatalf("post-compaction recovery: %+v, want exactly 1 record / 1 memo", st.Recovery)
	}
	st3, js3 := run(m3)
	if st3.SchedulerCacheHits == 0 || st3.SchedulerCacheHits != st3.SchedulerRequests {
		t.Fatalf("post-compaction daemon not warm: %d/%d", st3.SchedulerCacheHits, st3.SchedulerRequests)
	}
	if !bytes.Equal(js3, baseline) {
		t.Fatal("post-compaction report differs from baseline")
	}
	if st.PersistErrors != 0 {
		t.Fatalf("persist errors across a healthy lifecycle: %d", st.PersistErrors)
	}
	drain(t, m3)
}

// TestManagerRestartCorruptCache: a corrupted memo log costs cache
// warmth, never startup — the daemon reports the drop, runs cold, and
// produces the same bytes as ever.
func TestManagerRestartCorruptCache(t *testing.T) {
	corpus, baseline := persistFixture(t, "kafka", 8, 8)
	stateDir := t.TempDir()
	dataDir := t.TempDir()
	store, err := NewFileStore(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(Config{Store: store, PersistDir: stateDir})
	if _, err := m1.Ingest("acme", "c", bytes.NewReader(corpus)); err != nil {
		t.Fatal(err)
	}
	s, err := m1.Start("acme", SessionSpec{Study: "kafka", Corpus: "c"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, StateDone)
	drain(t, m1)

	// Rot the cache wholesale — a foreign or trashed file.
	logPath := filepath.Join(stateDir, "memo.log")
	if err := os.WriteFile(logPath, []byte("garbage that is certainly not a record log"), 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := NewFileStore(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	rec := &eventRecorder{}
	m2 := NewManager(Config{Store: store2, PersistDir: stateDir, Observer: rec})
	st := m2.Stats()
	if st.Recovery == nil || st.Recovery.Error != "" {
		t.Fatalf("corrupt cache aborted startup: %+v", st.Recovery)
	}
	if !st.Recovery.ColdStart || st.Recovery.RecordsDropped == 0 || st.Recovery.Memos != 0 {
		t.Fatalf("corruption not reported as a cold start: %+v", st.Recovery)
	}
	if sr, ok := rec.recovered(); !ok || !sr.ColdStart {
		t.Errorf("StateRecovered event missing or not cold: %+v (ok=%v)", sr, ok)
	}
	s2, err := m2.Start("acme", SessionSpec{Study: "kafka", Corpus: "c"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s2, StateDone)
	if hits := s2.Status().SchedulerCacheHits; hits != 0 {
		t.Fatalf("cold start served %d cache hits from a trashed log", hits)
	}
	_, js, err := s2.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, baseline) {
		t.Fatal("cold-start report differs from baseline")
	}
	drain(t, m2)
}

// TestManagerRestartFingerprintInvalidation: a persisted memo is only
// revived for the exact corpus bytes it was derived over. Changing (or
// deleting) the corpus between runs of the daemon invalidates the
// record at recovery — the cross-restart edition of
// TestManagerMemoInvalidation.
func TestManagerRestartFingerprintInvalidation(t *testing.T) {
	c1, _ := persistFixture(t, "npgsql", 8, 8)
	c2, b2 := persistFixture(t, "npgsql", 12, 12)
	stateDir := t.TempDir()
	dataDir := t.TempDir()

	store, err := NewFileStore(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(Config{Store: store, PersistDir: stateDir})
	if _, err := m1.Ingest("acme", "c", bytes.NewReader(c1)); err != nil {
		t.Fatal(err)
	}
	s, err := m1.Start("acme", SessionSpec{Study: "npgsql", Corpus: "c"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, StateDone)
	drain(t, m1)

	// While the daemon is down, the corpus file changes under the same
	// name (an out-of-band re-ingest).
	logs, err := DecodeCorpus("acme", "c", bytes.NewReader(c2))
	if err != nil {
		t.Fatal(err)
	}
	store2, err := NewFileStore(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store2.Put("acme", "c", logs); err != nil {
		t.Fatal(err)
	}

	m2 := NewManager(Config{Store: store2, PersistDir: stateDir})
	st := m2.Stats()
	if st.Recovery == nil || st.Recovery.Invalidated == 0 || st.Recovery.Memos != 0 {
		t.Fatalf("changed corpus did not invalidate the persisted memo: %+v", st.Recovery)
	}
	s2, err := m2.Start("acme", SessionSpec{Study: "npgsql", Corpus: "c"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s2, StateDone)
	if hits := s2.Status().SchedulerCacheHits; hits != 0 {
		t.Fatalf("invalidated memo still served %d hits", hits)
	}
	_, js, err := s2.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, b2) {
		t.Fatal("post-invalidation report was poisoned by the stale memo")
	}
	drain(t, m2)

	// Corpus deleted outright: same discipline.
	if err := store2.Delete("acme", "c"); err != nil {
		t.Fatal(err)
	}
	store3, err := NewFileStore(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	m3 := NewManager(Config{Store: store3, PersistDir: stateDir})
	if st := m3.Stats(); st.Recovery == nil || st.Recovery.Memos != 0 {
		t.Fatalf("memo over a vanished corpus survived recovery: %+v", st.Recovery)
	}
	m3.Close()
}

// TestManagerPersistOffIdentity: with PersistDir unset the feature is
// fully dormant — no recovery stats, no persist errors, and reports
// byte-identical to a persisting daemon's.
func TestManagerPersistOffIdentity(t *testing.T) {
	corpus, baseline := persistFixture(t, "npgsql", 8, 8)
	m := NewManager(Config{})
	defer m.Close()
	st := m.Stats()
	if st.Recovery != nil || st.PersistErrors != 0 {
		t.Fatalf("persistence-off manager carries persistence state: %+v", st)
	}
	if _, err := m.Ingest("acme", "c", bytes.NewReader(corpus)); err != nil {
		t.Fatal(err)
	}
	s, err := m.Start("acme", SessionSpec{Study: "npgsql", Corpus: "c"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, StateDone)
	_, js, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, baseline) {
		t.Fatal("persistence-off report differs from baseline")
	}
}

// TestManagerPersistDirUnusable: an unopenable state directory disables
// persistence loudly (Recovery.Error) but the daemon serves sessions.
func TestManagerPersistDirUnusable(t *testing.T) {
	corpus, baseline := persistFixture(t, "npgsql", 8, 8)
	// A fault filesystem that crashed before the first op refuses
	// everything — the morally "mount failed" state directory.
	ffs := chaos.WrapFS(durable.OS(), chaos.FaultFSConfig{CrashAtOp: 1})
	m := NewManager(Config{PersistDir: t.TempDir(), PersistFS: ffs})
	defer m.Close()
	st := m.Stats()
	if st.Recovery == nil || st.Recovery.Error == "" {
		t.Fatalf("unusable state dir not reported: %+v", st.Recovery)
	}
	if _, err := m.Ingest("acme", "c", bytes.NewReader(corpus)); err != nil {
		t.Fatal(err)
	}
	s, err := m.Start("acme", SessionSpec{Study: "npgsql", Corpus: "c"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, StateDone)
	_, js, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, baseline) {
		t.Fatal("degraded daemon report differs from baseline")
	}
}

// TestFileStorePutRetriesTransientSyncFaults: the corpus write path
// rides out transient fsync failures with its bounded seeded backoff,
// and surfaces a persistent fault as an error after a failed Put —
// leaving no partial file behind either way.
func TestFileStorePutRetriesTransientSyncFaults(t *testing.T) {
	corpus, _ := persistFixture(t, "npgsql", 4, 4)
	logs, err := DecodeCorpus("acme", "c", bytes.NewReader(corpus))
	if err != nil {
		t.Fatal(err)
	}

	// Two transient faults: attempts 1 and 2 fail at fsync, attempt 3
	// lands. The committed file must decode to the full corpus.
	ffs := chaos.WrapFS(durable.OS(), chaos.FaultFSConfig{SyncErrs: 2})
	store, err := NewFileStoreFS(t.TempDir(), ffs, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("acme", "c", logs); err != nil {
		t.Fatalf("transient sync faults not retried: %v", err)
	}
	got, err := store.Get("acme", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != len(logs.Runs) {
		t.Fatalf("round trip lost executions: %d != %d", len(got.Runs), len(logs.Runs))
	}

	// A fault outliving every retry fails the Put; the corpus must not
	// half-appear.
	ffs2 := chaos.WrapFS(durable.OS(), chaos.FaultFSConfig{SyncErrs: 1000})
	store2, err := NewFileStoreFS(t.TempDir(), ffs2, true)
	if err != nil {
		t.Fatal(err)
	}
	var ferr *chaos.FaultError
	if err := store2.Put("acme", "c", logs); !errors.As(err, &ferr) {
		t.Fatalf("persistent sync fault not surfaced: %v", err)
	}
	var nf *NotFoundError
	if _, err := store2.Get("acme", "c"); !errors.As(err, &nf) {
		t.Fatalf("failed Put left a visible corpus: %v", err)
	}
}

// TestCrashMatrixDaemonRecovery kills the whole persistence stack —
// corpus store and memo log share one fault filesystem — at every
// mutating disk operation of a full daemon lifecycle, then reboots on
// the real filesystem and asserts the recovery invariants: startup
// never aborts, a stored corpus is served whole or not at all, and the
// rebooted daemon's session output is byte-identical to the offline
// baseline (a recovered memo is only ever valid outcomes).
func TestCrashMatrixDaemonRecovery(t *testing.T) {
	corpus, baseline := persistFixture(t, "npgsql", 8, 8)
	spec := SessionSpec{Study: "npgsql", Corpus: "c"}

	// lifecycle runs ingest → session → drain over the given filesystem,
	// tolerating failures at every step (post-crash everything errors).
	lifecycle := func(fsys durable.FS, dataDir, stateDir string) {
		store, err := NewFileStoreFS(dataDir, fsys, true)
		if err != nil {
			return
		}
		m := NewManager(Config{Store: store, SessionBudget: 2, TenantCap: 8, PersistDir: stateDir, PersistFS: fsys})
		if _, err := m.Ingest("acme", "c", bytes.NewReader(corpus)); err == nil {
			if s, err := m.Start("acme", spec); err == nil {
				<-s.Done()
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	}

	// Clean run bounds the sweep.
	clean := chaos.WrapFS(durable.OS(), chaos.FaultFSConfig{})
	lifecycle(clean, t.TempDir(), t.TempDir())
	total := clean.Ops()
	if total < 8 {
		t.Fatalf("lifecycle too small to matter: %d mutating ops", total)
	}
	stride := 1
	if testing.Short() {
		stride = 3
	}

	for k := 1; k <= total; k += stride {
		ffs := chaos.WrapFS(durable.OS(), chaos.FaultFSConfig{CrashAtOp: k})
		dataDir, stateDir := t.TempDir(), t.TempDir()
		lifecycle(ffs, dataDir, stateDir)
		if !ffs.Crashed() {
			t.Fatalf("crash point %d never reached", k)
		}

		// Reboot on the real filesystem.
		store, err := NewFileStore(dataDir)
		if err != nil {
			t.Fatalf("crash at op %d: store reopen aborted: %v", k, err)
		}
		m := NewManager(Config{Store: store, SessionBudget: 2, TenantCap: 8, PersistDir: stateDir})
		st := m.Stats()
		if st.Recovery == nil || st.Recovery.Error != "" {
			t.Fatalf("crash at op %d: recovery aborted: %+v", k, st.Recovery)
		}

		// The corpus is whole or absent — never torn (atomic rename).
		switch logs, err := store.Get("acme", "c"); {
		case err == nil:
			var buf bytes.Buffer
			if eerr := trace.Encode(&buf, logs.Set()); eerr != nil || !bytes.Equal(buf.Bytes(), corpus) {
				t.Fatalf("crash at op %d: corpus served torn (encode err %v)", k, eerr)
			}
		default:
			var nf *NotFoundError
			if !errors.As(err, &nf) {
				t.Fatalf("crash at op %d: corpus neither whole nor cleanly absent: %v", k, err)
			}
			if _, err := m.Ingest("acme", "c", bytes.NewReader(corpus)); err != nil {
				t.Fatalf("crash at op %d: re-ingest after crash: %v", k, err)
			}
		}

		// Whatever warmth survived, the output must not change.
		s, err := m.Start("acme", spec)
		if err != nil {
			t.Fatalf("crash at op %d: session refused after reboot: %v", k, err)
		}
		waitState(t, s, StateDone)
		_, js, err := s.Report()
		if err != nil {
			t.Fatalf("crash at op %d: report: %v", k, err)
		}
		if !bytes.Equal(js, baseline) {
			t.Fatalf("crash at op %d: rebooted daemon served a report differing from baseline (poisoned recovery)", k)
		}
		drain(t, m)
	}
}
