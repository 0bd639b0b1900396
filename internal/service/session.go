package service

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"aid"
)

// SessionState is a session's lifecycle state.
type SessionState string

// The session lifecycle: Queued (admitted, waiting for a budget slot) →
// Running → one of Done / Failed / Cancelled.
const (
	StateQueued    SessionState = "queued"
	StateRunning   SessionState = "running"
	StateDone      SessionState = "done"
	StateFailed    SessionState = "failed"
	StateCancelled SessionState = "cancelled"
)

// Terminal reports whether the state is final.
func (s SessionState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// SessionSpec configures one discovery session. The zero value of each
// option field means the pipeline default (aid.New's paper defaults).
type SessionSpec struct {
	// Study names the built-in case study providing the program (and,
	// when Corpus is empty, the live trace collection).
	Study string `json:"study,omitempty"`
	// Corpus, when set, names a stored corpus of the session's tenant
	// to debug offline instead of collecting live; Study still names
	// the program re-executed by the intervention phase.
	Corpus string `json:"corpus,omitempty"`

	// Successes/Failures/SeedCap/Replays/Seed/Compounds/Workers and
	// Variant mirror the aid.Pipeline options of the same names.
	Successes int    `json:"successes,omitempty"`
	Failures  int    `json:"failures,omitempty"`
	SeedCap   int    `json:"seedCap,omitempty"`
	Replays   int    `json:"replays,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Compounds int    `json:"compounds,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	Variant   string `json:"variant,omitempty"`

	// TimeoutMS caps the session's total lifetime (queue wait included)
	// in milliseconds; 0 uses the manager's default.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
	// NoShare opts the session out of the tenant's cross-session
	// scheduler memo (see Manager).
	NoShare bool `json:"noShare,omitempty"`

	// Source overrides the trace source entirely — a library/test hook
	// (custom workloads, fault injection); not reachable over HTTP.
	// Sessions with a custom source never share a scheduler.
	Source aid.TraceSource `json:"-"`
}

// validate rejects a spec the pipeline cannot run: a negative count,
// pool width or timeout, a timeout past time.Duration's range, or an
// unknown variant. The seed may be any value.
func (sp SessionSpec) validate() error {
	if min(sp.Successes, sp.Failures, sp.SeedCap, sp.Replays, sp.Compounds, sp.Workers) < 0 || sp.TimeoutMS < 0 {
		return validationf("service: successes, failures, seedCap, replays, compounds, workers and timeoutMs must not be negative")
	}
	if sp.TimeoutMS > math.MaxInt64/int64(time.Millisecond) {
		return validationf("service: timeoutMs %d is out of range", sp.TimeoutMS)
	}
	switch aid.Variant(sp.Variant) {
	case "", aid.VariantAID, aid.VariantAIDP, aid.VariantAIDPB:
		return nil
	}
	return validationf("service: unknown variant %q", sp.Variant)
}

// shareKey fingerprints everything that determines intervention
// outcomes for scheduler sharing: two sessions of one tenant share a
// scheduler only when their keys match ("" = never share).
func (sp SessionSpec) shareKey() string {
	if sp.NoShare || sp.Source != nil || sp.Study == "" {
		return ""
	}
	return fmt.Sprintf("study=%s corpus=%s succ=%d fail=%d seedcap=%d replays=%d seed=%d compounds=%d variant=%s",
		sp.Study, sp.Corpus, sp.Successes, sp.Failures, sp.SeedCap, sp.Replays, sp.Seed, sp.Compounds, sp.Variant)
}

// SessionStatus is the serializable status a session reports (the GET
// /v1/sessions/{id} body).
type SessionStatus struct {
	ID     string       `json:"id"`
	Tenant string       `json:"tenant"`
	State  SessionState `json:"state"`
	Study  string       `json:"study,omitempty"`
	Corpus string       `json:"corpus,omitempty"`
	// Error describes a failed or cancelled session.
	Error string `json:"error,omitempty"`
	// Events counts captured observer events so far.
	Events int `json:"events"`
	// SchedulerRequests and SchedulerCacheHits are the session's own
	// usage of its tenant's shared scheduler memo: how many intervention
	// outcomes it requested and how many were served from prior
	// sessions' (or its own) cached replays. Measured inside the shared
	// scheduler's discovery slot (the pipeline's SchedulerUsage event),
	// so sibling sessions' rounds are never folded in. Zero for
	// non-shared sessions.
	SchedulerRequests  int `json:"schedulerRequests"`
	SchedulerCacheHits int `json:"schedulerCacheHits"`
	// Created/Started/Finished are RFC3339Nano wall-clock marks; empty
	// until reached.
	Created  string `json:"created,omitempty"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
}

// Session is one discovery run owned by the Manager. All fields are
// managed; consumers read via the accessor methods, which are safe for
// concurrent use.
type Session struct {
	id     string
	tenant string
	spec   SessionSpec
	// gen is the generation of the spec's stored corpus the session
	// resolved (corpusState).
	gen uint64

	cancel func()        // cancels the session context
	done   chan struct{} // closed when the session reaches a terminal state

	mu        sync.Mutex
	state     SessionState
	err       error
	report    *aid.Report
	reportJS  []byte
	created   time.Time
	started   time.Time
	finished  time.Time
	schedReq  int
	schedHit  int
	followers int

	log eventLog
}

// maxFollowers caps a session's concurrent event-stream followers. Each
// holds a goroutine and a connection until the session ends or its
// client hangs up, and bodies are untimed by design, so without the cap
// clients could pile followers onto one long session.
const maxFollowers = 8

// follow claims one of the session's follower slots, false when all
// maxFollowers are taken; unfollow frees it.
func (s *Session) follow() (unfollow func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.followers >= maxFollowers {
		return nil, false
	}
	s.followers++
	return func() {
		s.mu.Lock()
		s.followers--
		s.mu.Unlock()
	}, true
}

// Done returns a channel closed when the session reaches a terminal
// state.
func (s *Session) Done() <-chan struct{} { return s.done }

// State returns the current lifecycle state.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Report returns the completed report and its canonical JSON encoding,
// or an error while the session is still running, failed, or was
// cancelled.
func (s *Session) Report() (*aid.Report, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.report != nil:
		return s.report, s.reportJS, nil
	case s.state.Terminal():
		if s.err != nil {
			return nil, nil, fmt.Errorf("service: session %s %s: %w", s.id, s.state, s.err)
		}
		return nil, nil, fmt.Errorf("service: session %s %s without a report", s.id, s.state)
	default:
		return nil, nil, fmt.Errorf("service: session %s is %s; report not ready", s.id, s.state)
	}
}

// Status snapshots the serializable status.
func (s *Session) Status() SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionStatus{
		ID:                 s.id,
		Tenant:             s.tenant,
		State:              s.state,
		Study:              s.spec.Study,
		Corpus:             s.spec.Corpus,
		Events:             s.log.len(),
		SchedulerRequests:  s.schedReq,
		SchedulerCacheHits: s.schedHit,
		Created:            stamp(s.created),
		Started:            stamp(s.started),
		Finished:           stamp(s.finished),
	}
	if s.err != nil {
		st.Error = s.err.Error()
	}
	return st
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// Events returns the captured event lines from index from onward, plus
// the next index to resume from and whether the stream is complete
// (session terminal and everything delivered). It never blocks; see
// WaitEvents for the streaming loop.
func (s *Session) Events(from int) (lines []json.RawMessage, next int, complete bool) {
	return s.log.read(from, s.done)
}

// WaitEvents blocks until events past index from exist, the session
// ends, or stop is closed (e.g. the streaming client hung up).
func (s *Session) WaitEvents(from int, stop <-chan struct{}) {
	s.log.wait(from, s.done, stop)
}

// observe captures one pipeline event into the session log. Events that
// fail to serialize are dropped (none of the facade's event types can,
// but a custom Source could emit its own Event implementation).
// SchedulerUsage doubles as the session's scheduler stats: the pipeline
// measures the delta while holding the shared scheduler's discovery
// slot, so the counts are exactly this session's.
func (s *Session) observe(e aid.Event) {
	if su, ok := e.(aid.SchedulerUsage); ok {
		s.mu.Lock()
		s.schedReq = su.Requests
		s.schedHit = su.CacheHits
		s.mu.Unlock()
	}
	line, err := aid.MarshalEvent(e)
	if err != nil {
		return
	}
	s.log.append(line)
}

// eventLog is the session's append-only event buffer with a
// close-and-replace notification channel: appends never block on
// readers (a slow streaming client cannot backpressure the pipeline —
// it just reads the buffer at its own pace), and readers wait without
// polling.
type eventLog struct {
	mu     sync.Mutex
	lines  []json.RawMessage
	notify chan struct{}
}

func (l *eventLog) append(line json.RawMessage) {
	l.mu.Lock()
	l.lines = append(l.lines, line)
	if l.notify != nil {
		close(l.notify)
		l.notify = nil
	}
	l.mu.Unlock()
}

func (l *eventLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lines)
}

// read returns lines[from:], the next resume index, and completeness
// against the done channel.
func (l *eventLog) read(from int, done <-chan struct{}) ([]json.RawMessage, int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from > len(l.lines) {
		from = len(l.lines)
	}
	out := l.lines[from:]
	next := len(l.lines)
	// done closes only after the pipeline returned, and the pipeline
	// appends events synchronously — so once done is observed closed,
	// the lines returned here are the complete remainder.
	terminal := false
	select {
	case <-done:
		terminal = true
	default:
	}
	return out, next, terminal
}

// wait blocks until the log grows past from, done closes, or stop
// closes.
func (l *eventLog) wait(from int, done, stop <-chan struct{}) {
	l.mu.Lock()
	if len(l.lines) > from {
		l.mu.Unlock()
		return
	}
	if l.notify == nil {
		l.notify = make(chan struct{})
	}
	notify := l.notify
	l.mu.Unlock()
	select {
	case <-notify:
	case <-done:
	case <-stop:
	}
}
