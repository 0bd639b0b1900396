// The intervention scheduler: the execution layer between the
// discovery logic (Algorithms 1–3) and the Intervener.
//
// Discovery is adaptive — each round's group depends on the previous
// outcome — so the scheduler cannot reorder or run ahead of rounds.
// What it does is memoize outcomes keyed by the forced-predicate set,
// so a group retested across the branch-prune and GIWP phases, or
// across ablation variants sharing one scheduler, never re-replays.
// Every other request calls Intervene on the decision goroutine.
//
// Every outcome is a pure function of its forced-predicate set (the
// Intervener contract for deterministic replay), so caching cannot
// change it: the Result is byte-identical whether the scheduler was
// fresh or shared with a previous variant's run. Only the RoundMeta
// reported to observers (execution ordinals, cache hits) reflects how
// outcomes were produced.
package core

import (
	"context"
	"sort"
	"sync"

	"aid/internal/predicate"
)

// BatchIntervener is an Intervener that can also answer several
// independent groups' replay bundles in one call. The scheduler asks
// for one group at a time and never calls InterveneBatch; the
// interface stays for callers that replay a known set of groups at
// once. Outcomes must be independent per group: each
// group's observations are a pure function of its forced-predicate set,
// identical to a standalone Intervene call.
type BatchIntervener interface {
	Intervener
	InterveneBatch(ctx context.Context, groups [][]predicate.ID) ([][]Observation, error)
}

// Request is one outcome the discovery logic needs from the scheduler.
type Request struct {
	// Preds is the group to intervene on.
	Preds []predicate.ID
	// Escalation, in robust mode, requests a fresh escalated retest of
	// the group: the cache is bypassed, the trial budget is scaled by
	// the level, and the outcome overwrites any cached entry. The
	// discovery logic uses it during known-positive invariant repair,
	// where the cached verdicts are exactly what is under suspicion.
	// Ignored outside robust mode.
	Escalation int
}

// RoundMeta describes how a round's outcome was produced. It is
// observational (provenance, not algorithm state): metadata may differ
// between a fresh and a shared scheduler even though the Round and
// Result are byte-identical.
type RoundMeta struct {
	// Batch is the 1-based ordinal of the execution that produced the
	// outcome; a cache hit repeats the ordinal of the execution it
	// serves.
	Batch int
	// CacheHit reports that the outcome was already memoized when
	// requested — no new replays were started.
	CacheHit bool
	// Trials and Retries report the adaptive trial oracle's cost for
	// the outcome (zero outside robust mode): executions that produced
	// observations, and transient-error retries on top. A repaired
	// round folds its escalated retest into the totals.
	Trials, Retries int
	// Confidence is the verdict's posterior under the configured noise
	// bounds (zero outside robust mode, 1 for a conclusive
	// counter-example).
	Confidence float64
	// Contradiction reports that the outcome initially contradicted a
	// recorded verdict and went through escalated repair.
	Contradiction bool
}

// SchedulerStats aggregates a scheduler's execution accounting.
type SchedulerStats struct {
	// Requests counts Outcome calls; Executions counts groups actually
	// replayed (Requests - CacheHits, plus repair retests).
	Requests, Executions int
	// CacheHits counts requests served without starting new replays.
	CacheHits int
	// Batches counts the execution ordinals handed out (RoundMeta.Batch).
	Batches int
	// Contradictions counts monotonicity violations detected between a
	// fresh outcome and a recorded verdict (robust mode only).
	Contradictions int
	// Repaired counts contradictions whose escalated retests restored
	// consistency; the remainder were resolved by trusting the
	// persisted side.
	Repaired int
	// Escalated counts escalated retests executed (repair retests plus
	// Request.Escalation rounds).
	Escalated int
}

// SchedulerConfig configures a Scheduler. The scheduler's mode is not
// configured: it follows from the intervener (see NewScheduler).
type SchedulerConfig struct {
	// NoCache disables outcome memoization — every round re-executes.
	// It is the uncached reference in cached-vs-uncached equivalence
	// tests.
	NoCache bool
	// OnContradiction, when non-nil in robust mode, is invoked for each
	// detected contradiction after its repair completed. Purely
	// observational.
	OnContradiction func(ContradictionEvent)
}

// ContradictionEvent describes one detected monotonicity violation: a
// group whose intervention stopped the failure while a superset's
// intervention let it persist. Under a truthful oracle that is
// impossible (forcing more predicates to their passing values cannot
// un-stop the failure), so one of the two verdicts is noise.
type ContradictionEvent struct {
	// Stopped is the subset group whose recorded verdict was "failure
	// stopped"; Persisted is the superset whose verdict was "failure
	// persisted".
	Stopped, Persisted []predicate.ID
	// Resolved reports that the escalated retests restored consistency.
	// When false, the persisted verdict was trusted (a failing run is
	// the stronger evidence under missed-manifestation noise) and the
	// stopped verdict was struck from the index.
	Resolved bool
}

// outcomeEntry is one cached group outcome.
type outcomeEntry struct {
	obs   []Observation
	batch int
	// preds is the group behind the entry's cache key, kept so the memo
	// can be exported (the key is a canonical digest, not invertible).
	preds []predicate.ID
	// info and contradiction are the robust-mode provenance of the
	// outcome, replayed into RoundMeta on cache hits.
	info          TrialInfo
	contradiction bool
}

// meta is the entry's provenance as reported to observers.
func (e *outcomeEntry) meta(hit bool) RoundMeta {
	return RoundMeta{Batch: e.batch, CacheHit: hit, Trials: e.info.Trials, Retries: e.info.Retries,
		Confidence: e.info.Confidence, Contradiction: e.contradiction}
}

// verdictRec is one recorded group verdict in the robust scheduler's
// monotonicity index.
type verdictRec struct {
	// ids is the group, sorted for subset tests.
	ids []predicate.ID
	// stopped is the verdict.
	stopped bool
}

// Scheduler mediates every intervention of a discovery run. It may be
// shared across Discover calls over the same deterministic intervener
// (e.g. the AID / AID-P / AID-P-B ablation variants of one instance),
// in which case the memo cache carries over and repeated groups are
// never re-replayed. A Scheduler must not be shared across different
// interveners.
//
// Concurrency contract: Outcome is called from a single decision
// thread (discovery is adaptive — there is never a second concurrent
// requester), and the intervener is called on that thread only. Stats
// and ExportMemo may be read from other goroutines while a run is in
// progress; the cache holds only completed outcomes.
type Scheduler struct {
	iv       Intervener
	tiv      TrialIntervener // iv's trial oracle; nil outside robust mode
	noCache  bool
	robust   bool
	onContra func(ContradictionEvent)

	mu    sync.Mutex
	cache map[string]*outcomeEntry
	stats SchedulerStats

	// verdicts is the monotonicity index of robust mode: every verdict
	// the scheduler has vouched for, keyed like the cache; verdictKeys
	// preserves insertion order so conflict detection is deterministic.
	// Accessed only from the decision thread (see the concurrency
	// contract), so they need no lock.
	verdicts    map[string]*verdictRec
	verdictKeys []string

	// keyIDs and keyBuf are the decision thread's scratch for canonical
	// keys (see the concurrency contract): a memo hit looks its key up
	// from them and allocates nothing.
	keyIDs []predicate.ID
	keyBuf []byte
}

// NewScheduler builds a scheduler over the intervener. The same
// scheduler value is safe to pass to several (sequential) Discover
// calls.
//
// The mode follows from the intervener, once. A plain Intervener is a
// pure function of the forced-predicate set, so its outcomes are
// memoized outright. A TrialIntervener (RobustIntervener) is noisy but
// verdict-stabilized, and the scheduler runs in robust mode: outcomes
// are still memoized (each verdict is already a high-confidence
// aggregate, so replaying it from cache is no worse than re-asking the
// oracle), but every fresh verdict is checked against the recorded
// ones for monotonicity violations, and a contradiction triggers
// invalidation plus an escalated retest instead of silent trust.
func NewScheduler(iv Intervener, cfg SchedulerConfig) *Scheduler {
	s := &Scheduler{
		iv:       iv,
		noCache:  cfg.NoCache,
		onContra: cfg.OnContradiction,
		cache:    map[string]*outcomeEntry{},
	}
	s.tiv, s.robust = iv.(TrialIntervener)
	if s.robust {
		s.verdicts = map[string]*verdictRec{}
	}
	return s
}

// Intervener returns the wrapped intervener.
func (s *Scheduler) Intervener() Intervener { return s.iv }

// Rebind swaps the wrapped intervener while keeping the memo cache —
// the hook behind cross-session scheduler reuse: a daemon session
// builds a fresh executor over the same (program, corpus, seeds,
// config) tuple as an earlier session and inherits its outcomes.
//
// The caller owns two contracts. Equivalence: the new intervener must
// be outcome-equivalent to the old one (same forced-predicate set →
// same observations), or the cache serves poison; key schedulers by
// everything that determines outcomes. Exclusivity: Rebind must not
// race a running Discover — callers serialize runs that share a
// scheduler (aid.SharedScheduler does). The mode stays the one
// NewScheduler chose, so a robust scheduler must be rebound to another
// TrialIntervener. Rebinding to nil releases the intervener, and with
// it whatever the intervener holds, between runs.
func (s *Scheduler) Rebind(iv Intervener) {
	s.iv = iv
	s.tiv, _ = iv.(TrialIntervener)
}

// Robust reports that the scheduler runs in robust mode: a noisy but
// verdict-stabilized intervener with guarded memoization, contradiction
// repair, and escalated retests available. The discovery logic consults
// it to enable the known-positive invariant repair.
func (s *Scheduler) Robust() bool { return s.robust }

// Stats returns a snapshot of the execution accounting.
func (s *Scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// canonKey is the cache key of a forced-predicate set: membership only,
// order-insensitive (predicate.GroupKey).
func canonKey(preds []predicate.ID) string { return predicate.GroupKey(preds) }

// keyBytes is canonKey's bytes, built in the decision thread's scratch
// and valid until its next call.
func (s *Scheduler) keyBytes(preds []predicate.ID) []byte {
	s.keyIDs = append(s.keyIDs[:0], preds...)
	s.keyBuf = predicate.AppendGroupKey(s.keyBuf[:0], s.keyIDs)
	return s.keyBuf
}

// Outcome returns the observations for the requested group: the
// memoized outcome when there is one, otherwise a fresh Intervene call
// on the calling goroutine.
func (s *Scheduler) Outcome(ctx context.Context, req Request) ([]Observation, RoundMeta, error) {
	if s.robust && req.Escalation > 0 {
		return s.escalatedOutcome(ctx, req)
	}
	kb := s.keyBytes(req.Preds)
	s.mu.Lock()
	s.stats.Requests++
	if e, hit := s.cache[string(kb)]; hit {
		s.stats.CacheHits++
		s.mu.Unlock()
		return e.obs, e.meta(true), nil
	}
	s.stats.Executions++
	s.stats.Batches++
	e := &outcomeEntry{batch: s.stats.Batches}
	s.mu.Unlock()
	key := string(kb) // the key the miss inserts under

	obs, err := s.iv.Intervene(ctx, req.Preds)
	if err != nil {
		// Never memoize failures: a cancelled context or transient
		// intervener error must not be served back to a later run over
		// a shared scheduler.
		return obs, e.meta(false), err
	}
	e.obs = obs
	if !s.noCache {
		e.preds = append([]predicate.ID(nil), req.Preds...)
		s.mu.Lock()
		s.cache[key] = e
		s.mu.Unlock()
	}
	if s.robust {
		// Vetted after caching, because an unresolved contradiction
		// strikes the entry again. Robust mode exports no memo, so no
		// other goroutine reads the entry while it is updated here.
		e.obs, e.info, e.contradiction, err = s.vetOutcome(ctx, req.Preds, key, obs)
		if err != nil {
			s.mu.Lock()
			if s.cache[key] == e {
				delete(s.cache, key)
			}
			s.mu.Unlock()
		}
	}
	return e.obs, e.meta(false), err
}

// escalatedOutcome serves a Request with Escalation > 0: a fresh
// escalated retest that bypasses and then overwrites the cache. Used by
// the known-positive invariant repair, where the recorded verdicts are
// exactly what is under suspicion.
func (s *Scheduler) escalatedOutcome(ctx context.Context, req Request) ([]Observation, RoundMeta, error) {
	key := string(s.keyBytes(req.Preds))
	s.mu.Lock()
	s.stats.Requests++
	s.stats.Executions++
	s.stats.Escalated++
	s.stats.Batches++
	batch := s.stats.Batches
	s.mu.Unlock()
	obs, info, err := s.escalatedIntervene(ctx, req.Preds, req.Escalation)
	if err != nil {
		s.mu.Lock()
		delete(s.cache, key)
		s.mu.Unlock()
		return nil, RoundMeta{Batch: batch}, err
	}
	if !s.noCache {
		e := &outcomeEntry{obs: obs, batch: batch, info: info,
			preds: append([]predicate.ID(nil), req.Preds...)}
		s.mu.Lock()
		s.cache[key] = e
		s.mu.Unlock()
	}
	s.recordVerdict(key, req.Preds, !anyFailed(obs))
	meta := RoundMeta{Batch: batch, Trials: info.Trials, Retries: info.Retries, Confidence: info.Confidence}
	return obs, meta, nil
}

// escalatedIntervene runs one escalated retest through the trial
// oracle.
func (s *Scheduler) escalatedIntervene(ctx context.Context, preds []predicate.ID, level int) ([]Observation, TrialInfo, error) {
	obs, err := s.tiv.InterveneEscalated(ctx, preds, level)
	return obs, s.tiv.LastInfo(), err
}

// vetOutcome is robust mode's admission check for a fresh outcome: the
// verdict is tested against every recorded one for monotonicity
// violations, a contradiction triggers escalated retests of both sides
// (repair), and the surviving verdict is recorded in the index. Runs on
// the decision thread only.
func (s *Scheduler) vetOutcome(ctx context.Context, preds []predicate.ID, key string, obs []Observation) ([]Observation, TrialInfo, bool, error) {
	info := s.tiv.LastInfo()
	stopped := !anyFailed(obs)
	conflictKey, conflict := s.findConflict(key, preds, stopped)
	if conflict == nil {
		s.recordVerdict(key, preds, stopped)
		return obs, info, false, nil
	}
	s.mu.Lock()
	s.stats.Contradictions++
	s.mu.Unlock()

	// Repair: escalated retests of both sides; the retested verdicts
	// replace the suspect ones in cache and index.
	retest := func(p []predicate.ID) ([]Observation, TrialInfo, error) {
		s.mu.Lock()
		s.stats.Executions++
		s.stats.Escalated++
		s.mu.Unlock()
		return s.escalatedIntervene(ctx, p, 1)
	}
	curObs, curInfo, err := retest(preds)
	if err != nil {
		return nil, info, true, err
	}
	otherObs, otherInfo, err := retest(conflict.ids)
	if err != nil {
		return nil, info, true, err
	}
	curStopped := !anyFailed(curObs)
	otherStopped := !anyFailed(otherObs)
	s.mu.Lock()
	if e, ok := s.cache[conflictKey]; ok {
		e.obs, e.info = otherObs, otherInfo
	}
	s.mu.Unlock()
	conflict.stopped = otherStopped

	// The original violation was stopped(S) ⊆ persisted(P); after the
	// retests, consistency holds unless that same orientation recurs.
	var still bool
	var ev ContradictionEvent
	if stopped {
		// Current group was the stopped subset.
		still = curStopped && !otherStopped
		ev = ContradictionEvent{Stopped: append([]predicate.ID(nil), preds...),
			Persisted: append([]predicate.ID(nil), conflict.ids...)}
	} else {
		still = otherStopped && !curStopped
		ev = ContradictionEvent{Stopped: append([]predicate.ID(nil), conflict.ids...),
			Persisted: append([]predicate.ID(nil), preds...)}
	}
	ev.Resolved = !still
	if still {
		// Unresolved even escalated: trust the persisted side — under
		// missed-manifestation noise a failing run is the stronger
		// evidence — and strike the stopped verdict from the index so
		// it cannot trigger the same repair again. Its cache entry goes
		// too: a future request must re-ask the oracle.
		if stopped {
			delete(s.verdicts, key)
			s.mu.Lock()
			delete(s.cache, key)
			s.mu.Unlock()
		} else {
			delete(s.verdicts, conflictKey)
			s.mu.Lock()
			delete(s.cache, conflictKey)
			s.mu.Unlock()
			s.recordVerdict(key, preds, curStopped)
		}
	} else {
		s.mu.Lock()
		s.stats.Repaired++
		s.mu.Unlock()
		s.recordVerdict(key, preds, curStopped)
	}
	if s.onContra != nil {
		s.onContra(ev)
	}
	info.Trials += curInfo.Trials + otherInfo.Trials
	info.Retries += curInfo.Retries + otherInfo.Retries
	if curInfo.Confidence > 0 {
		info.Confidence = curInfo.Confidence
	}
	return curObs, info, true, nil
}

// findConflict scans the verdict index for a monotonicity violation
// with the given verdict: a stopped group conflicts with any recorded
// persisted superset, a persisted group with any recorded stopped
// subset. Scan order is insertion order, so detection is deterministic.
func (s *Scheduler) findConflict(key string, preds []predicate.ID, stopped bool) (string, *verdictRec) {
	if len(s.verdicts) == 0 {
		return "", nil
	}
	cur := sortedIDs(preds)
	for _, k := range s.verdictKeys {
		rec := s.verdicts[k]
		if rec == nil || k == key || rec.stopped == stopped {
			continue
		}
		if stopped && subsetIDs(cur, rec.ids) {
			return k, rec // we stopped, a recorded superset persisted
		}
		if !stopped && subsetIDs(rec.ids, cur) {
			return k, rec // we persisted, a recorded subset stopped
		}
	}
	return "", nil
}

// recordVerdict inserts or updates a group's verdict in the index.
func (s *Scheduler) recordVerdict(key string, preds []predicate.ID, stopped bool) {
	if s.verdicts == nil {
		return
	}
	if rec, ok := s.verdicts[key]; ok {
		rec.stopped = stopped
		return
	}
	s.verdicts[key] = &verdictRec{ids: sortedIDs(preds), stopped: stopped}
	s.verdictKeys = append(s.verdictKeys, key)
}

// sortedIDs copies and sorts a group for subset testing.
func sortedIDs(preds []predicate.ID) []predicate.ID {
	out := append([]predicate.ID(nil), preds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// subsetIDs reports sub ⊆ super over sorted ID slices.
func subsetIDs(sub, super []predicate.ID) bool {
	if len(sub) > len(super) {
		return false
	}
	j := 0
	for _, id := range sub {
		for j < len(super) && super[j] < id {
			j++
		}
		if j >= len(super) || super[j] != id {
			return false
		}
		j++
	}
	return true
}
