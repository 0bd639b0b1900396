package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
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
	rep, err := aid.New(aid.WithBaseline(false)).Run(t.Context(), aid.FromTraceFile(path).ForStudy(cs))
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
// (Close) and a graceful drain (Shutdown); either way the memo file the
// cold session wrote is what the next start restores.
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

	// Generation 2: restarts warm from the memo file.
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
	drain(t, m2) // graceful; the warm session wrote nothing

	// Generation 3: restarts warm from the same file.
	m3 := newMgr(nil)
	st = m3.Stats()
	if st.Recovery == nil || st.Recovery.Memos != 1 || st.Recovery.RecordsKept != 1 {
		t.Fatalf("post-drain recovery: %+v, want exactly 1 record / 1 memo", st.Recovery)
	}
	st3, js3 := run(m3)
	if st3.SchedulerCacheHits == 0 || st3.SchedulerCacheHits != st3.SchedulerRequests {
		t.Fatalf("post-drain daemon not warm: %d/%d", st3.SchedulerCacheHits, st3.SchedulerRequests)
	}
	if !bytes.Equal(js3, baseline) {
		t.Fatal("post-drain report differs from baseline")
	}
	if st.PersistErrors != 0 {
		t.Fatalf("persist errors across a healthy lifecycle: %d", st.PersistErrors)
	}
	drain(t, m3)
}

// TestManagerRestartCorruptCache: a corrupted memo file costs cache
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
	files := memoFiles(t, stateDir)
	if len(files) != 1 {
		t.Fatalf("state directory holds %v, want one memo file", files)
	}
	if err := os.WriteFile(filepath.Join(stateDir, files[0]), []byte("garbage that is certainly not a memo file"), 0o644); err != nil {
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
		t.Fatalf("cold start served %d cache hits from a trashed file", hits)
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
	store, err := NewFileStoreFS(t.TempDir(), ffs)
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
	store2, err := NewFileStoreFS(t.TempDir(), ffs2)
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
// corpus store and memo files share one fault filesystem — at every
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
		store, err := NewFileStoreFS(dataDir, fsys)
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

// memoFiles lists every regular file under the state directory, as
// paths relative to it.
func memoFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		out = append(out, rel)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// exportSize returns the length of the tenant's memo export under the
// spec's share key.
func exportSize(t *testing.T, m *Manager, tenant string, spec SessionSpec) int {
	t.Helper()
	m.mu.Lock()
	memo := m.memoLocked(tenant, spec.shareKey())
	m.mu.Unlock()
	if memo == nil {
		t.Fatalf("tenant %s has no memo for %+v", tenant, spec)
	}
	data, err := memo.sched.ExportMemo()
	if err != nil {
		t.Fatal(err)
	}
	return len(data)
}

// TestManagerMemoFilesHoldLiveMemos: the state directory holds one file
// per live memo, whatever the traffic. Repeat sessions of one spec
// leave one file barely larger than the memo's export; a memo evicted
// past the cap, or invalidated by a corpus PUT or DELETE, leaves no
// file.
func TestManagerMemoFilesHoldLiveMemos(t *testing.T) {
	c1, _ := persistFixture(t, "npgsql", 8, 8)
	c2, _ := persistFixture(t, "npgsql", 10, 10)
	stateDir := t.TempDir()
	m := NewManager(Config{SessionBudget: 2, TenantMemoCap: 2, PersistDir: stateDir})
	for _, c := range []string{"c", "d"} {
		if _, err := m.Ingest("acme", c, bytes.NewReader(c1)); err != nil {
			t.Fatal(err)
		}
	}
	run := func(spec SessionSpec) {
		t.Helper()
		s, err := m.Start("acme", spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, StateDone)
	}
	onC := SessionSpec{Study: "npgsql", Corpus: "c"}
	for range 5 {
		run(onC)
	}
	m.Close() // waits for the memo writes
	files := memoFiles(t, stateDir)
	if len(files) != 1 {
		t.Fatalf("after repeat sessions the state directory holds %v, want one memo file", files)
	}
	info, err := os.Stat(filepath.Join(stateDir, files[0]))
	if err != nil {
		t.Fatal(err)
	}
	if n := exportSize(t, m, "acme", onC); info.Size() < int64(n) || info.Size() > int64(n)+1024 {
		t.Fatalf("memo file is %d bytes for a %d-byte export", info.Size(), n)
	}

	// Eviction: with the cap at 2, a third key drops the least recently
	// used memo (onC) and its file.
	m = NewManager(Config{SessionBudget: 2, TenantMemoCap: 2, PersistDir: stateDir, Store: m.store})
	onD := SessionSpec{Study: "npgsql", Corpus: "d"}
	onDSeed2 := SessionSpec{Study: "npgsql", Corpus: "d", Seed: 2}
	run(onD)
	run(onDSeed2)
	m.Close()
	want := []string{
		filepath.Join("acme", memoName(onD.shareKey())),
		filepath.Join("acme", memoName(onDSeed2.shareKey())),
	}
	slices.Sort(want)
	if got := memoFiles(t, stateDir); !slices.Equal(got, want) {
		t.Fatalf("after eviction the state directory holds %v, want %v", got, want)
	}

	// Invalidation: re-uploading d with other contents drops both memos
	// over it, and deleting it leaves nothing to drop.
	m = NewManager(Config{SessionBudget: 2, TenantMemoCap: 2, PersistDir: stateDir, Store: m.store})
	if _, err := m.Ingest("acme", "d", bytes.NewReader(c2)); err != nil {
		t.Fatal(err)
	}
	if got := memoFiles(t, stateDir); len(got) != 0 {
		t.Fatalf("after a corpus PUT the state directory holds %v, want nothing", got)
	}
	run(onD)
	m.Close()
	if got := memoFiles(t, stateDir); len(got) != 1 {
		t.Fatalf("state directory holds %v, want one memo file", got)
	}
	m = NewManager(Config{SessionBudget: 2, TenantMemoCap: 2, PersistDir: stateDir, Store: m.store})
	defer m.Close()
	if err := m.DeleteCorpus("acme", "d"); err != nil {
		t.Fatal(err)
	}
	if got := memoFiles(t, stateDir); len(got) != 0 {
		t.Fatalf("after a corpus DELETE the state directory holds %v, want nothing", got)
	}
}

// memoName is the file name of the memo under a share key.
func memoName(key string) string {
	p := &persistor{}
	return filepath.Base(p.path("t", key))
}

// TestManagerWarmSessionWritesNothing: a session served wholly from its
// memo, restored or in memory, makes no mutating disk operation.
func TestManagerWarmSessionWritesNothing(t *testing.T) {
	spec := SessionSpec{Study: "npgsql", Successes: 8, Failures: 8}
	stateDir := t.TempDir()
	run := func(m *Manager) SessionStatus {
		t.Helper()
		s, err := m.Start("acme", spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, StateDone)
		return s.Status()
	}
	// One cold session alone, then a cold and a warm one: the warm one
	// adds no operation.
	lifetime := func(dir string, sessions int) int {
		t.Helper()
		ffs := chaos.WrapFS(durable.OS(), chaos.FaultFSConfig{})
		m := NewManager(Config{PersistDir: dir, PersistFS: ffs})
		for range sessions {
			run(m)
		}
		m.Close()
		return ffs.Ops()
	}
	if one, two := lifetime(t.TempDir(), 1), lifetime(stateDir, 2); one != two {
		t.Fatalf("a warm session after a cold one made %d mutating ops", two-one)
	}

	// A memo restored from its file: the warm session again writes
	// nothing.
	ffs := chaos.WrapFS(durable.OS(), chaos.FaultFSConfig{})
	m := NewManager(Config{PersistDir: stateDir, PersistFS: ffs})
	before := ffs.Ops()
	st := run(m)
	m.Close()
	if st.SchedulerCacheHits == 0 || st.SchedulerCacheHits != st.SchedulerRequests {
		t.Fatalf("restored memo not warm: %d/%d cache hits", st.SchedulerCacheHits, st.SchedulerRequests)
	}
	if n := ffs.Ops() - before; n != 0 {
		t.Fatalf("a warm session over a restored memo made %d mutating ops", n)
	}
}

// TestManagerRestartBitFlipDropsOneMemo: corruption costs only the
// corrupt memo. With two memos persisted, one flipped bit in one file
// drops exactly that memo; the other restores warm, and both tenants'
// reports stay byte-identical to the baseline.
func TestManagerRestartBitFlipDropsOneMemo(t *testing.T) {
	corpus, baseline := persistFixture(t, "npgsql", 8, 8)
	stateDir := t.TempDir()
	store := NewMemStore()
	spec := SessionSpec{Study: "npgsql", Corpus: "c"}
	run := func(m *Manager, tenant string) SessionStatus {
		t.Helper()
		s, err := m.Start(tenant, spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, StateDone)
		_, js, err := s.Report()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(js, baseline) {
			t.Fatalf("%s: report differs from baseline", tenant)
		}
		return s.Status()
	}
	m1 := NewManager(Config{Store: store, PersistDir: stateDir})
	for _, tenant := range []string{"acme", "beta"} {
		if _, err := m1.Ingest(tenant, "c", bytes.NewReader(corpus)); err != nil {
			t.Fatal(err)
		}
		run(m1, tenant)
	}
	m1.Close()

	// Flip the low bit of the epoch's first digit: the JSON stays valid,
	// so only the checksum can tell.
	path := filepath.Join(stateDir, "acme", memoName(spec.shareKey()))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte(`"epoch":`))
	if at < 0 {
		t.Fatal("memo file holds no epoch")
	}
	if err := chaos.FlipBit(durable.OS(), path, int64(at+len(`"epoch":`)), 0); err != nil {
		t.Fatal(err)
	}

	m2 := NewManager(Config{Store: store, PersistDir: stateDir})
	defer m2.Close()
	rec := m2.Stats().Recovery
	if rec == nil || rec.Error != "" || rec.RecordsDropped != 1 || rec.RecordsKept != 1 || rec.Memos != 1 || rec.ColdStart {
		t.Fatalf("recovery after one flipped bit: %+v, want one record dropped and one memo restored", rec)
	}
	if got, want := memoFiles(t, stateDir), []string{filepath.Join("beta", memoName(spec.shareKey()))}; !slices.Equal(got, want) {
		t.Fatalf("after recovery the state directory holds %v, want only %v", got, want)
	}
	if st := run(m2, "acme"); st.SchedulerCacheHits != 0 {
		t.Fatalf("the corrupt memo served %d cache hits", st.SchedulerCacheHits)
	}
	if st := run(m2, "beta"); st.SchedulerCacheHits == 0 || st.SchedulerCacheHits != st.SchedulerRequests {
		t.Fatalf("the intact memo is not warm: %d/%d cache hits", st.SchedulerCacheHits, st.SchedulerRequests)
	}
}

// TestCrashMatrixMemoFiles sweeps a workload that writes, overwrites
// and removes several memo files of two tenants, crashing the
// filesystem at every mutating operation in turn. At each crash point
// recovery never aborts, never meets a torn file, and restores for each
// memo either the state before the interrupted step or the state after
// it: exactly what the steps that finished wrote.
func TestCrashMatrixMemoFiles(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("..", "..", "testdata", "memo", "npgsql.json"))
	if err != nil {
		t.Fatal(err)
	}
	var entries []json.RawMessage
	if err := json.Unmarshal(fixture, &entries); err != nil {
		t.Fatal(err)
	}
	// version(n) is a memo export of the fixture's first n entries.
	version := func(n int) string {
		data, err := json.Marshal(entries[:n])
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	// Each step writes the memo of a (tenant, key) with the first n
	// entries, or removes it when n is 0.
	type step struct {
		tenant, key string
		n           int
	}
	steps := []step{
		{"acme", "a", 2}, {"acme", "b", 3}, {"beta", "a", 1}, {"acme", "a", 5},
		{"acme", "b", 0}, {"acme", "c", 4}, {"acme", "b", 6}, {"beta", "a", 0}, {"acme", "c", 2},
	}
	if len(entries) < 6 {
		t.Fatalf("fixture has %d entries, the workload needs 6", len(entries))
	}
	// states[i] maps "tenant/key" to the memo after the first i steps.
	states := []map[string]string{{}}
	for _, st := range steps {
		next := maps.Clone(states[len(states)-1])
		if st.n == 0 {
			delete(next, st.tenant+"/"+st.key)
		} else {
			next[st.tenant+"/"+st.key] = version(st.n)
		}
		states = append(states, next)
	}
	// workload runs the steps until one fails and returns how many
	// finished.
	workload := func(fsys durable.FS, dir string) int {
		p := &persistor{fs: fsys, dir: dir}
		for i, st := range steps {
			if st.n == 0 {
				p.remove(p.path(st.tenant, st.key))
				if p.errors() > 0 {
					return i
				}
				continue
			}
			rec := persistRecord{Tenant: st.tenant, Key: st.key, Epoch: int64(i + 1), Memo: json.RawMessage(version(st.n))}
			if err := p.write(rec); err != nil {
				return i
			}
		}
		return len(steps)
	}

	clean := chaos.WrapFS(durable.OS(), chaos.FaultFSConfig{})
	if done := workload(clean, t.TempDir()); done != len(steps) {
		t.Fatalf("clean run stopped after %d of %d steps", done, len(steps))
	}
	total := clean.Ops()
	if total < 2*len(steps) {
		t.Fatalf("workload too small to matter: %d mutating ops", total)
	}
	for k := 1; k <= total; k++ {
		dir := t.TempDir()
		ffs := chaos.WrapFS(durable.OS(), chaos.FaultFSConfig{CrashAtOp: k})
		done := workload(ffs, dir)
		if !ffs.Crashed() {
			t.Fatalf("crash point %d never reached", k)
		}
		// The process died in step done; recovery runs on the real
		// filesystem.
		m := NewManager(Config{PersistDir: dir})
		rec := m.Stats().Recovery
		if rec == nil || rec.Error != "" || rec.RecordsDropped != 0 || rec.Invalidated != 0 {
			t.Fatalf("crash at op %d (step %d): recovery %+v, want every file intact", k, done, rec)
		}
		got := map[string]string{}
		for tenant, ts := range m.tenants {
			for key, memo := range ts.shared {
				data, err := memo.sched.ExportMemo()
				if err != nil {
					t.Fatal(err)
				}
				got[tenant+"/"+key] = string(data)
			}
		}
		m.Close()
		if !maps.Equal(got, states[done]) && (done == len(steps) || !maps.Equal(got, states[done+1])) {
			t.Fatalf("crash at op %d (step %d): recovery restored %d memos that are neither the state before the step nor after it", k, done, len(got))
		}
	}
}

// TestManagerMemoFilesConcurrent races sessions over several keys, LRU
// evictions and corpus re-uploads that invalidate every memo. Once the
// manager is closed, the state directory holds exactly the files of the
// live memos that have been written, and a restart restores each.
func TestManagerMemoFilesConcurrent(t *testing.T) {
	corpus, _ := persistFixture(t, "npgsql", 8, 8)
	stateDir := t.TempDir()
	m := NewManager(Config{SessionBudget: 2, TenantCap: 16, TenantMemoCap: 2, PersistDir: stateDir})
	if _, err := m.Ingest("acme", "c", bytes.NewReader(corpus)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := range 12 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := m.Start("acme", SessionSpec{Study: "npgsql", Corpus: "c", Seed: int64(1 + i%3)})
			if err != nil {
				t.Error(err)
				return
			}
			<-s.Done()
		}()
		if i%5 == 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := m.Ingest("acme", "c", bytes.NewReader(corpus)); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	m.Close()

	var want []string
	for key, memo := range m.tenants["acme"].shared {
		if memo.onDisk {
			want = append(want, filepath.Join("acme", memoName(key)))
		}
	}
	slices.Sort(want)
	if got := memoFiles(t, stateDir); !slices.Equal(got, want) {
		t.Fatalf("state directory holds %v, want the written live memos %v", got, want)
	}
	m2 := NewManager(Config{PersistDir: stateDir, Store: m.store})
	defer m2.Close()
	if rec := m2.Stats().Recovery; rec.Memos != len(want) || rec.RecordsDropped != 0 || rec.Invalidated != 0 {
		t.Fatalf("recovery %+v, want %d memos restored", rec, len(want))
	}
}

// TestManagerRemovalKeepsReplacingMemoFile: a corpus PUT drops a
// written memo, and before its file removal gets the persistor's lock a
// new memo under the same key is written. The removal must leave that
// file alone: it holds a live memo, not the dropped one.
func TestManagerRemovalKeepsReplacingMemoFile(t *testing.T) {
	corpus, _ := persistFixture(t, "npgsql", 8, 8)
	stateDir := t.TempDir()
	m := NewManager(Config{PersistDir: stateDir})
	ingest := func() {
		if _, err := m.Ingest("acme", "c", bytes.NewReader(corpus)); err != nil {
			t.Error(err)
		}
	}
	spec := SessionSpec{Study: "npgsql", Corpus: "c"}
	key := spec.shareKey()
	current := func() *tenantMemo {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.memoLocked("acme", key)
	}
	run := func() *tenantMemo {
		t.Helper()
		s, err := m.Start("acme", spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, StateDone)
		return current()
	}
	ingest()
	run()
	// The first memo's file lands after its session is done.
	for i := 0; len(memoFiles(t, stateDir)) == 0; i++ {
		if i > 3000 {
			t.Fatal("first memo never written")
		}
		time.Sleep(time.Millisecond)
	}

	m.persist.io.Lock()
	removed := make(chan struct{})
	go func() {
		defer close(removed)
		ingest() // drops the first memo; its file removal waits for the lock
	}()
	for i := 0; current() != nil; i++ {
		if i > 3000 {
			t.Fatal("re-upload never dropped the memo")
		}
		time.Sleep(time.Millisecond)
	}
	second := run()
	m.writeMemoLocked("acme", key, second.sched) // the new memo's write wins the lock
	m.persist.io.Unlock()
	<-removed
	m.Close()

	if got := memoFiles(t, stateDir); len(got) != 1 {
		t.Fatalf("state directory holds %v, want the live memo's file", got)
	}
	m2 := NewManager(Config{PersistDir: stateDir, Store: m.store})
	defer m2.Close()
	if rec := m2.Stats().Recovery; rec.Memos != 1 {
		t.Fatalf("recovery %+v, want the live memo restored", rec)
	}
}
