package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"time"

	"aid"
	"aid/internal/durable"
)

// Config configures a Manager. Zero fields take the documented
// defaults.
type Config struct {
	// Store backs the per-tenant corpora (default: a fresh MemStore).
	Store CorpusStore
	// SessionBudget is the global weight budget of concurrently running
	// sessions (default 4). A session weighs its Workers option, at
	// least 1 and at most the budget, and runs at that width, so one
	// wide session and several narrow ones draw the same accounting.
	SessionBudget int
	// TenantCap bounds each tenant's non-terminal (queued + running)
	// sessions; admission beyond it fails with SaturatedError — the
	// daemon never queues unboundedly (default 8).
	TenantCap int
	// SessionTimeout is the default per-session lifetime cap, queue
	// wait included (default 5m). SessionSpec.TimeoutMS overrides per
	// session.
	SessionTimeout time.Duration
	// RetryAfter is the backoff hint attached to SaturatedError and the
	// HTTP Retry-After header (default 1s).
	RetryAfter time.Duration
	// RetainSessions bounds how many terminal sessions the manager
	// retains for status/report queries (default 256). Beyond it the
	// oldest terminal sessions are evicted — their status and report
	// endpoints then 404 — so a long-running daemon's memory stays
	// bounded by its retention window, not its uptime. Live sessions
	// are never evicted.
	RetainSessions int
	// TenantMemoCap bounds each tenant's cross-session scheduler memos
	// (default 32). Beyond it the least-recently-used memo is dropped;
	// a session over the dropped fingerprint simply starts a fresh memo.
	TenantMemoCap int
	// ResultCacheCap, when > 0, turns on the per-tenant session result
	// cache: a completed successful session's detached report, canonical
	// JSON, and event stream are retained under its share key, and a
	// later session with an identical spec is served from the cache
	// without running a pipeline (its status shows resultCacheHit, and
	// its scheduler counters are zero — it never touched the scheduler).
	// The cap bounds cached results per tenant, LRU-evicted. Off by
	// default (0): repeat sessions then re-run and are answered from the
	// scheduler memo instead, which re-verifies every outcome. Cached
	// results follow the memos' invalidation: replacing or deleting the
	// corpus they were computed over drops them. In-memory only — never
	// persisted.
	ResultCacheCap int
	// MaxCorpusBytes caps an HTTP corpus ingest body (default 64 MiB);
	// larger bodies are refused with 413. It guards the daemon, not the
	// library: Manager.Ingest itself reads whatever it is handed.
	MaxCorpusBytes int64
	// PersistDir, when set, makes tenant scheduler memos survive
	// restarts: each is kept in one checksummed file under this
	// directory, rewritten atomically when a session taught it new
	// outcomes, removed when the memo is evicted or invalidated, and
	// restored (with corpus-fingerprint validation) at construction.
	// Empty disables persistence entirely — the daemon then behaves
	// byte-identically to one without the feature.
	PersistDir string
	// PersistFS overrides the filesystem under PersistDir (default the
	// real one) — the disk-fault harness's hook.
	PersistFS durable.FS
	// Observer, when non-nil, receives manager-level events — today the
	// startup StateRecovered report. Session-level pipeline events flow
	// through each session's own stream, not here.
	Observer aid.Observer
}

func (c Config) withDefaults() Config {
	if c.Store == nil {
		c.Store = NewMemStore()
	}
	if c.SessionBudget < 1 {
		c.SessionBudget = 4
	}
	if c.TenantCap < 1 {
		c.TenantCap = 8
	}
	if c.SessionTimeout <= 0 {
		c.SessionTimeout = 5 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.RetainSessions < 1 {
		c.RetainSessions = 256
	}
	if c.TenantMemoCap < 1 {
		c.TenantMemoCap = 32
	}
	if c.MaxCorpusBytes < 1 {
		c.MaxCorpusBytes = 64 << 20
	}
	return c
}

// DrainingError reports that the manager is shutting down and admits no
// new work (HTTP 503).
type DrainingError struct{}

func (*DrainingError) Error() string { return "service: daemon is draining; no new sessions admitted" }

// UnknownStudyError reports a session spec naming no valid case study
// (HTTP 400).
type UnknownStudyError struct{ Study string }

func (e *UnknownStudyError) Error() string {
	if e.Study == "" {
		return "service: session spec names no case study (\"study\" is required)"
	}
	return fmt.Sprintf("service: unknown case study %q", e.Study)
}

// SessionPanicError is a session failure recovered from a panicking
// pipeline run: the panic is contained to the session — sibling
// sessions and the daemon keep running.
type SessionPanicError struct {
	// Value is the recovered panic value; Stack the goroutine stack at
	// recovery.
	Value any
	Stack string
}

func (e *SessionPanicError) Error() string {
	return fmt.Sprintf("service: session panicked: %v", e.Value)
}

// ManagerStats is a daemon-wide accounting snapshot.
type ManagerStats struct {
	// Sessions counts the retained sessions by current state: every
	// live session, plus terminal ones inside the Config.RetainSessions
	// window.
	Sessions map[SessionState]int `json:"sessions"`
	// Saturations counts admissions refused with SaturatedError.
	Saturations int `json:"saturations"`
	// Tenants counts tenants with at least one session.
	Tenants int `json:"tenants"`
	// Recovery reports what startup recovery restored (nil with
	// persistence off).
	Recovery *RecoveryStats `json:"recovery,omitempty"`
	// PersistErrors counts persistence-layer failures since startup
	// (memo file writes and removals). Sessions never fail on them; they
	// only cost future warmth — but they surface here, never silently.
	PersistErrors int `json:"persistErrors,omitempty"`
}

// tenantMemo is one cross-session scheduler memo: the shared scheduler
// plus the bookkeeping that bounds and invalidates it — the corpus the
// fingerprint was computed over (so a corpus Put/Delete drops exactly
// the memos whose outcomes it could poison; "" for live-collection
// sessions, which no corpus change can invalidate) and a recency tick
// for LRU eviction under Config.TenantMemoCap.
type tenantMemo struct {
	corpus  string
	fp      string // corpus content fingerprint ("" when corpus is "")
	lastUse int64
	sched   *aid.SharedScheduler
	// written is the scheduler's execution count when the memo's file
	// was last written, and onDisk that the file holds this memo. Both
	// are guarded by the persistor's io lock, not m.mu.
	written int
	onDisk  bool
}

// cachedResult is one entry of the tenant's opt-in session result cache
// (Config.ResultCacheCap): a completed session's detached report, its
// canonical JSON, and the serialized event stream, plus the same
// corpus/recency bookkeeping as tenantMemo so it is invalidated by
// corpus replacement and LRU-bounded. Everything held is immutable —
// the report is detached (and re-detached per serve), the JSON and
// event lines are shared read-only.
type cachedResult struct {
	corpus   string
	report   *aid.Report
	reportJS []byte
	events   []json.RawMessage
	lastUse  int64
}

// tenantState is the manager's per-tenant state: the live-session count
// backing the admission cap, the cross-session scheduler memos keyed by
// session fingerprint, and (when Config.ResultCacheCap > 0) completed
// session results under the same keys. results is nil until first use —
// the recovery path builds tenantStates without it.
type tenantState struct {
	active  int
	shared  map[string]*tenantMemo
	results map[string]*cachedResult
}

// Manager owns the daemon's sessions: admission, execution, streaming
// state, per-tenant scheduler sharing, and drain. It is safe for
// concurrent use; every HTTP handler is a thin translation over it.
type Manager struct {
	cfg     Config
	store   CorpusStore
	limiter *Limiter

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu          sync.Mutex
	sessions    map[string]*Session
	order       []string
	seq         int
	memoTick    int64
	terminal    int // terminal sessions currently retained
	tenants     map[string]*tenantState
	draining    bool
	saturations int

	// persist writes the memo files (nil = persistence off); recovery
	// the startup recovery outcome (nil = persistence off).
	persist  *persistor
	recovery *RecoveryStats

	wg sync.WaitGroup
}

// NewManager builds a manager over the config.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		store:      cfg.Store,
		limiter:    NewLimiter(cfg.SessionBudget),
		baseCtx:    ctx,
		baseCancel: cancel,
		sessions:   map[string]*Session{},
		tenants:    map[string]*tenantState{},
	}
	if cfg.PersistDir != "" {
		// Recovery runs before any session can exist, so it may populate
		// m.tenants without the lock. Never fatal: an unusable state
		// directory leaves persistence disabled with the error on the
		// stats endpoint.
		m.openPersist()
	}
	return m
}

// MaxCorpusBytes returns the HTTP ingest body cap.
func (m *Manager) MaxCorpusBytes() int64 { return m.cfg.MaxCorpusBytes }

// Ingest decodes a JSON-lines corpus from r and stores it for the
// tenant. Replacing a corpus invalidates the tenant's scheduler memos
// over the old contents: a memoized intervention outcome is only valid
// for the exact corpus it was replayed against (the Rebind
// outcome-equivalence contract), so sessions after a re-ingest start
// from a fresh memo rather than being served stale outcomes.
func (m *Manager) Ingest(tenant, name string, r io.Reader) (CorpusInfo, error) {
	if err := validateKey(tenant, name); err != nil {
		return CorpusInfo{}, err
	}
	logs, err := DecodeCorpus(tenant, name, r)
	if err != nil {
		return CorpusInfo{}, err
	}
	if err := m.store.Put(tenant, name, logs); err != nil {
		return CorpusInfo{}, err
	}
	m.invalidateMemos(tenant, name)
	return corpusInfo(tenant, name, logs), nil
}

// DeleteCorpus removes a tenant's corpus and, like Ingest, drops the
// scheduler memos keyed over it.
func (m *Manager) DeleteCorpus(tenant, name string) error {
	if err := validateKey(tenant, name); err != nil {
		return err
	}
	if err := m.store.Delete(tenant, name); err != nil {
		return err
	}
	m.invalidateMemos(tenant, name)
	return nil
}

// invalidateMemos drops the tenant's scheduler memos fingerprinted over
// the named corpus, and their files. Sessions already running keep the
// memo they bound at admission — they also hold the corpus instance it
// was built over, so their outcomes stay consistent; only sessions
// admitted after the change see (and repopulate) a fresh memo.
func (m *Manager) invalidateMemos(tenant, corpus string) {
	var dropped []droppedMemo
	m.mu.Lock()
	if ts := m.tenants[tenant]; ts != nil {
		for key, memo := range ts.shared {
			if memo.corpus == corpus {
				delete(ts.shared, key)
				dropped = append(dropped, droppedMemo{key, memo})
			}
		}
		for key, c := range ts.results {
			if c.corpus == corpus {
				delete(ts.results, key)
			}
		}
	}
	m.mu.Unlock()
	m.removeMemoFiles(tenant, dropped)
}

// Corpora lists the tenant's stored corpora.
func (m *Manager) Corpora(tenant string) ([]CorpusInfo, error) {
	return m.store.List(tenant)
}

// Start admits and launches one session. It validates the spec and
// enforces the tenant's admission cap synchronously — a rejected
// session was never created — then runs the pipeline on its own
// goroutine, queued behind the global session budget. The returned
// session is observable immediately (status, events, cancel).
func (m *Manager) Start(tenant string, spec SessionSpec) (*Session, error) {
	if err := ValidateName("tenant", tenant); err != nil {
		return nil, err
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	source, err := m.resolveSource(tenant, spec)
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, &DrainingError{}
	}
	ts := m.tenants[tenant]
	if ts == nil {
		ts = &tenantState{shared: map[string]*tenantMemo{}}
		m.tenants[tenant] = ts
	}
	if ts.active >= m.cfg.TenantCap {
		m.saturations++
		m.mu.Unlock()
		return nil, &SaturatedError{Tenant: tenant, RetryAfter: m.cfg.RetryAfter}
	}
	ts.active++
	m.seq++
	id := fmt.Sprintf("s-%06d", m.seq)

	timeout := m.cfg.SessionTimeout
	if spec.TimeoutMS > 0 {
		timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(m.baseCtx, timeout)
	s := &Session{
		id:      id,
		tenant:  tenant,
		spec:    spec,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   StateQueued,
		created: time.Now(),
	}
	var shared *aid.SharedScheduler
	var cached *cachedResult
	var evicted []droppedMemo
	if key := spec.shareKey(); key != "" {
		// Result cache first (opt-in): an identical completed session's
		// outcome serves this one whole — no pipeline, no scheduler, so
		// the memo binding below is skipped too.
		if m.cfg.ResultCacheCap > 0 {
			if c := ts.results[key]; c != nil {
				m.memoTick++
				c.lastUse = m.memoTick
				cached = c
			}
		}
		if cached == nil {
			m.memoTick++
			memo := ts.shared[key]
			if memo == nil {
				memo = &tenantMemo{corpus: spec.Corpus, sched: aid.NewSharedScheduler()}
				if m.persist != nil {
					// Stamp the corpus content hash now, against the exact set
					// the session will replay over (resolveSource just fetched
					// it, so the store serves the cached instance): persisted
					// outcomes are only ever revived for this fingerprint.
					if fp, err := m.corpusFingerprint(tenant, spec.Corpus); err == nil {
						memo.fp = fp
					}
				}
				ts.shared[key] = memo
			}
			memo.lastUse = m.memoTick
			shared = memo.sched
			// LRU-bound the memo map: beyond the cap, the stalest
			// fingerprint's memo is dropped with its file (a later
			// session over it just rebuilds from scratch).
			for len(ts.shared) > m.cfg.TenantMemoCap {
				var lruKey string
				var lruTick int64
				for k, cand := range ts.shared {
					if lruKey == "" || cand.lastUse < lruTick {
						lruKey, lruTick = k, cand.lastUse
					}
				}
				evicted = append(evicted, droppedMemo{lruKey, ts.shared[lruKey]})
				delete(ts.shared, lruKey)
			}
		}
	}
	m.sessions[id] = s
	m.order = append(m.order, id)
	m.wg.Add(1)
	m.mu.Unlock()
	m.removeMemoFiles(tenant, evicted)

	go m.run(ctx, s, source, shared, cached)
	return s, nil
}

// run is a session's goroutine: wait for a budget slot, execute the
// pipeline with panic containment, record the outcome. A session bound
// to a cached result at admission skips all of that — no budget slot,
// no pipeline, no scheduler, no persistence — and is answered by
// replaying the original session's event stream and reusing its
// detached report and canonical JSON.
func (m *Manager) run(ctx context.Context, s *Session, source aid.TraceSource, shared *aid.SharedScheduler, cached *cachedResult) {
	defer m.wg.Done()
	defer s.cancel() // release the timeout timer

	if cached != nil {
		s.mu.Lock()
		s.state = StateRunning
		s.started = time.Now()
		s.mu.Unlock()
		s.log.replay(cached.events)
		m.finishCached(s, cached)
		return
	}

	release, err := m.limiter.Acquire(ctx, s.tenant, m.width(s.spec))
	if err != nil {
		m.finish(s, nil, err)
		return
	}

	s.mu.Lock()
	s.state = StateRunning
	s.started = time.Now()
	s.mu.Unlock()

	// The session's scheduler request/cache-hit stats arrive through the
	// pipeline's SchedulerUsage event (captured in Session.observe): the
	// pipeline measures the delta while holding the shared scheduler's
	// discovery slot, so a sibling session's concurrent rounds are never
	// folded in.
	rep, err := m.runPipeline(ctx, s, source, shared)
	release()
	m.finish(s, rep, err)
	// Write the memo after the outcome is recorded and the budget slot
	// freed (even for failed or cancelled sessions — completed
	// intervention outcomes stay valid regardless of how the session
	// ended). Still inside the session's wg scope, so Shutdown and
	// Close return only after every write.
	m.persistSession(s, shared)
}

// width is the session's pool width and limiter weight: its Workers
// option, at least 1 and at most the session budget.
func (m *Manager) width(sp SessionSpec) int {
	return min(max(sp.Workers, 1), m.cfg.SessionBudget)
}

// runPipeline executes the session's pipeline run, containing panics to
// the session (the PR 6 containment discipline at session granularity:
// a crashing session must not take sibling sessions or the daemon down).
func (m *Manager) runPipeline(ctx context.Context, s *Session, source aid.TraceSource, shared *aid.SharedScheduler) (rep *aid.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, &SessionPanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	opts := []aid.Option{aid.WithObserver(aid.ObserverFunc(s.observe))}
	sp := s.spec
	if sp.Successes > 0 || sp.Failures > 0 {
		opts = append(opts, aid.WithCorpusSize(sp.Successes, sp.Failures))
	}
	if sp.SeedCap > 0 {
		opts = append(opts, aid.WithSeedCap(sp.SeedCap))
	}
	if sp.Replays > 0 {
		opts = append(opts, aid.WithReplays(sp.Replays))
	}
	if sp.Seed != 0 {
		opts = append(opts, aid.WithSeed(sp.Seed))
	}
	if sp.Compounds > 0 {
		opts = append(opts, aid.WithCompounds(sp.Compounds))
	}
	if sp.Workers > 0 {
		opts = append(opts, aid.WithWorkers(m.width(sp)))
	}
	if sp.Variant != "" {
		opts = append(opts, aid.WithVariant(aid.Variant(sp.Variant)))
	}
	if shared != nil {
		opts = append(opts, aid.WithSharedScheduler(shared))
	}
	return aid.New(opts...).Run(ctx, source)
}

// finish records a session's terminal state and, with the result cache
// on, retains a successful shareable session's outcome for later
// identical sessions. s.done closes last, once the result is cached and
// the tenant's active count released: a client that sees the session
// end and repeats the spec at once must find both.
func (m *Manager) finish(s *Session, rep *aid.Report, err error) {
	var cacheRep *aid.Report
	var cacheJS []byte
	s.mu.Lock()
	s.finished = time.Now()
	switch {
	case err == nil:
		s.state = StateDone
		s.report = rep
		if js, jerr := rep.JSON(); jerr == nil {
			s.reportJS = js
		} else {
			s.state = StateFailed
			s.err = jerr
			s.report = nil
		}
	case errors.Is(err, context.Canceled):
		s.state = StateCancelled
		s.err = err
	case errors.Is(err, context.DeadlineExceeded):
		s.state = StateFailed
		s.err = fmt.Errorf("service: session timeout exceeded: %w", err)
	default:
		s.state = StateFailed
		s.err = err
	}
	if s.state == StateDone && m.cfg.ResultCacheCap > 0 {
		// Cache a copy detached from the session's own report: a client
		// holding the session's *Report cannot reach the cached one.
		cacheRep = s.report.Detach()
		cacheJS = s.reportJS
	}
	s.mu.Unlock()

	m.mu.Lock()
	ts := m.tenants[s.tenant]
	if ts != nil {
		ts.active--
	}
	if cacheRep != nil && ts != nil {
		if key := s.spec.shareKey(); key != "" {
			m.storeResultLocked(ts, key, s, cacheRep, cacheJS)
		}
	}
	m.terminal++
	m.pruneLocked()
	m.mu.Unlock()
	close(s.done)
}

// finishCached records the terminal state of a session served from the
// result cache: done, with a fresh detached copy of the cached report
// and the cached canonical JSON verbatim (no re-marshal). Its scheduler
// counters stay zero — it never touched the scheduler. Like finish, it
// closes s.done last.
func (m *Manager) finishCached(s *Session, cached *cachedResult) {
	s.mu.Lock()
	s.finished = time.Now()
	s.state = StateDone
	s.fromCache = true
	s.report = cached.report.Detach()
	s.reportJS = cached.reportJS
	s.mu.Unlock()

	m.mu.Lock()
	if ts := m.tenants[s.tenant]; ts != nil {
		ts.active--
	}
	m.terminal++
	m.pruneLocked()
	m.mu.Unlock()
	close(s.done)
}

// storeResultLocked retains a completed session's outcome in the
// tenant's result cache under its share key, LRU-bounding the cache at
// Config.ResultCacheCap (m.mu held).
func (m *Manager) storeResultLocked(ts *tenantState, key string, s *Session, rep *aid.Report, js []byte) {
	if ts.results == nil {
		ts.results = map[string]*cachedResult{}
	}
	m.memoTick++
	ts.results[key] = &cachedResult{
		corpus:   s.spec.Corpus,
		report:   rep,
		reportJS: js,
		events:   s.log.snapshot(),
		lastUse:  m.memoTick,
	}
	for len(ts.results) > m.cfg.ResultCacheCap {
		var lruKey string
		var lruTick int64
		for k, c := range ts.results {
			if lruKey == "" || c.lastUse < lruTick {
				lruKey, lruTick = k, c.lastUse
			}
		}
		delete(ts.results, lruKey)
	}
}

// pruneLocked evicts the oldest terminal sessions beyond the retention
// cap (m.mu held). Live sessions are skipped — only finished ones are
// evictable — so the daemon's session table is bounded by the retention
// window plus whatever is actually running. A client holding an evicted
// *Session (e.g. an attached event stream) keeps working against it;
// only manager lookups stop resolving the id.
func (m *Manager) pruneLocked() {
	if m.terminal <= m.cfg.RetainSessions {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		s := m.sessions[id]
		if m.terminal > m.cfg.RetainSessions && s.State().Terminal() {
			delete(m.sessions, id)
			m.terminal--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// resolveSource validates the spec and builds its trace source.
func (m *Manager) resolveSource(tenant string, spec SessionSpec) (aid.TraceSource, error) {
	if spec.Source != nil {
		return spec.Source, nil
	}
	study := aid.CaseStudyByName(spec.Study)
	if study == nil {
		return nil, &UnknownStudyError{Study: spec.Study}
	}
	if spec.Corpus == "" {
		return aid.FromStudy(study), nil
	}
	logs, err := m.store.Get(tenant, spec.Corpus)
	if err != nil {
		return nil, err
	}
	return aid.FromStoredCorpus(logs, study), nil
}

// Session returns a session by id.
func (m *Manager) Session(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// Sessions lists sessions in creation order, optionally filtered by
// tenant ("" = all).
func (m *Manager) Sessions(tenant string) []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*Session
	for _, id := range m.order {
		s := m.sessions[id]
		if tenant == "" || s.tenant == tenant {
			out = append(out, s)
		}
	}
	return out
}

// Cancel cancels a session by id (false when unknown). Cancelling a
// terminal session is a no-op.
func (m *Manager) Cancel(id string) bool {
	s, ok := m.Session(id)
	if !ok {
		return false
	}
	s.cancel()
	return true
}

// Stats snapshots daemon-wide accounting.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := ManagerStats{
		Sessions:      map[SessionState]int{},
		Saturations:   m.saturations,
		Tenants:       len(m.tenants),
		Recovery:      m.recovery,
		PersistErrors: m.persist.errors(),
	}
	for _, s := range m.sessions {
		st.Sessions[s.State()]++
	}
	return st
}

// Shutdown drains the daemon: no new sessions are admitted, running and
// queued sessions are given until ctx to finish, then force-cancelled.
// It returns nil on a clean drain and ctx's error when force-cancel was
// needed (sessions still unwind — Shutdown waits for them either way,
// so no session goroutine outlives it).
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Grace expired: cancel every session; they return within one
		// task-drain by the context-plumbing contract.
		m.baseCancel()
		<-done
		err = ctx.Err()
	}
	return err
}

// Close force-cancels everything and waits; for tests and fatal paths.
func (m *Manager) Close() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	m.baseCancel()
	m.wg.Wait()
}
