package service

import (
	"bytes"
	"sync"
	"testing"

	"aid/internal/trace"
)

// gatedStore is a CorpusStore whose next Get, once gated, fetches the
// corpus and then waits for the gate to open before returning it, so a
// corpus upload can land between a session's resolve and its
// admission.
type gatedStore struct {
	CorpusStore
	mu      sync.Mutex
	gate    chan struct{}
	fetched chan struct{}
}

func (s *gatedStore) Get(tenant, name string) (*trace.LogSet, error) {
	logs, err := s.CorpusStore.Get(tenant, name)
	s.mu.Lock()
	gate, fetched := s.gate, s.fetched
	s.gate = nil
	s.mu.Unlock()
	if gate != nil {
		close(fetched)
		<-gate
	}
	return logs, err
}

// TestManagerReuploadDuringSession: a session over a corpus that is
// replaced while the session is admitted or running leaves neither a
// cached result nor a memo of the old corpus behind. The next session
// with the same spec runs over the new corpus from scratch.
func TestManagerReuploadDuringSession(t *testing.T) {
	small, bSmall := persistFixture(t, "kafka", 5, 5)
	large, bLarge := persistFixture(t, "kafka", 20, 20)
	if bytes.Equal(bSmall, bLarge) {
		t.Fatal("the two corpora give one report: a stale result would pass for a fresh one")
	}
	spec := SessionSpec{Study: "kafka", Corpus: "c"}
	report := func(t *testing.T, s *Session) []byte {
		t.Helper()
		waitState(t, s, StateDone)
		_, js, err := s.Report()
		if err != nil {
			t.Fatal(err)
		}
		return js
	}

	// The session is admitted over the small corpus and queued behind a
	// blocker in the only budget slot; the corpus is replaced before it
	// runs. Its result must not be cached for the new corpus.
	t.Run("result", func(t *testing.T) {
		m := NewManager(Config{SessionBudget: 1, TenantCap: 8, ResultCacheCap: 4})
		defer m.Close()
		if _, err := m.Ingest("acme", "c", bytes.NewReader(small)); err != nil {
			t.Fatal(err)
		}
		blocker := newBlockingSource()
		if _, err := m.Start("acme", SessionSpec{Source: blocker}); err != nil {
			t.Fatal(err)
		}
		<-blocker.entered
		stale, err := m.Start("acme", spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Ingest("acme", "c", bytes.NewReader(large)); err != nil {
			t.Fatal(err)
		}
		close(blocker.release)
		if !bytes.Equal(report(t, stale), bSmall) {
			t.Error("the session admitted over the small corpus did not replay it")
		}
		next, err := m.Start("acme", spec)
		if err != nil {
			t.Fatal(err)
		}
		if js := report(t, next); next.Status().ResultCacheHit || !bytes.Equal(js, bLarge) {
			t.Errorf("the next session was served the replaced corpus's result (cache hit %v)", next.Status().ResultCacheHit)
		}
	})

	// The upload lands between the session's resolve and its admission.
	// The session must not create (and keep) a memo over the corpus it
	// resolved: the next session's scheduler traffic is a first
	// session's over the new corpus.
	t.Run("memo", func(t *testing.T) {
		fresh := NewManager(Config{})
		defer fresh.Close()
		if _, err := fresh.Ingest("acme", "c", bytes.NewReader(large)); err != nil {
			t.Fatal(err)
		}
		first, err := fresh.Start("acme", spec)
		if err != nil {
			t.Fatal(err)
		}
		report(t, first)
		want := first.Status()

		store := &gatedStore{CorpusStore: NewMemStore()}
		m := NewManager(Config{Store: store, SessionBudget: 2, TenantCap: 8})
		defer m.Close()
		if _, err := m.Ingest("acme", "c", bytes.NewReader(small)); err != nil {
			t.Fatal(err)
		}
		gate, fetched := make(chan struct{}), make(chan struct{})
		store.mu.Lock()
		store.gate, store.fetched = gate, fetched
		store.mu.Unlock()
		started := make(chan *Session, 1)
		go func() {
			s, err := m.Start("acme", spec)
			if err != nil {
				t.Error(err)
			}
			started <- s
		}()
		<-fetched
		if _, err := m.Ingest("acme", "c", bytes.NewReader(large)); err != nil {
			t.Fatal(err)
		}
		close(gate)
		stale := <-started
		if stale == nil {
			t.FailNow()
		}
		if !bytes.Equal(report(t, stale), bSmall) {
			t.Error("the session that resolved the small corpus did not replay it")
		}
		next, err := m.Start("acme", spec)
		if err != nil {
			t.Fatal(err)
		}
		js := report(t, next)
		if got := next.Status(); got.SchedulerCacheHits != want.SchedulerCacheHits || got.SchedulerRequests != want.SchedulerRequests || !bytes.Equal(js, bLarge) {
			t.Errorf("the next session bound a memo of the replaced corpus: %d of %d requests from the memo, a first session has %d of %d",
				got.SchedulerCacheHits, got.SchedulerRequests, want.SchedulerCacheHits, want.SchedulerRequests)
		}
	})
}
