// The adaptive trial oracle: the robustness layer between the
// intervention scheduler and an unreliable intervener.
//
// The paper's discovery loop assumes every intervention round yields a
// trustworthy verdict; real intermittent failures do not cooperate — a
// persisting bug may fail to manifest in a given run, a monitoring
// layer may forge or drop an observation, and the replay machinery
// itself can fail transiently. RobustIntervener replaces the fixed
// runs-per-round majority vote with sequential early-stopping repeated
// trials: it keeps executing single trials through the wrapped
// intervener until the round's verdict (failure stopped / persisted)
// reaches a configurable confidence bound, capping at MaxTrials. Each
// trial is one Intervene call on the wrapped intervener, so FlakyWorld,
// inject.Executor, and chaos wrappers plug in underneath unchanged.
//
// Two noise regimes select the stopping rule:
//
//   - FlipCeiling == 0 (default): failing runs are trustworthy — a
//     single failing run is a conclusive counter-example (§5.3,
//     footnote 1) and decides "persisted" immediately. Only the
//     "stopped" verdict needs repetition: the oracle accumulates
//     failure-free trials until the chance that a persisting failure
//     missed every one, (1-ManifestFloor)^t, drops below 1-Confidence.
//
//   - FlipCeiling > 0: failure bits can be forged (flipped
//     observations under chaos testing, monitoring glitches), so no
//     single run decides anything. The oracle runs a sequential
//     probability-ratio test between the two per-run failure rates it
//     is configured to distinguish — at least ManifestFloor when the
//     failure truly persists, at most FlipCeiling when it truly
//     stopped — and stops as soon as the posterior for either side
//     reaches Confidence.
//
// Transient intervener errors (including panics, which are recovered
// into errors) get bounded retry with seeded-jitter exponential
// backoff; context cancellation wins immediately, including during a
// backoff sleep.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"aid/internal/predicate"
	"aid/internal/rngfast"
)

// RobustConfig configures a RobustIntervener. The zero value selects
// the defaults documented per field.
type RobustConfig struct {
	// MaxTrials caps the trials of one round (default 12). Escalated
	// retests during contradiction repair may exceed the cap by the
	// escalation factor.
	MaxTrials int
	// Confidence is the verdict posterior at which the sequential test
	// stops early (default 0.99). Escalation tightens it.
	Confidence float64
	// ManifestFloor is the assumed minimum per-trial probability that a
	// truly persisting failure manifests as a failing run (default
	// 0.5). Lower floors demand more failure-free trials before
	// "stopped" is accepted.
	ManifestFloor float64
	// FlipCeiling is the assumed maximum per-trial probability that a
	// run's failure bit is forged — observed failing although the
	// intervention truly stopped the bug. 0 (default) declares failing
	// runs trustworthy: one failing run decides "persisted".
	FlipCeiling float64
	// RetryLimit bounds the retries of one trial whose underlying
	// Intervene call returns an error or panics (default 3). The
	// retries are transient-fault containment, not extra trials: a
	// trial that still fails after the limit aborts the round with the
	// last error.
	RetryLimit int
	// BackoffBase and BackoffMax bound the seeded-jitter exponential
	// backoff between retries (defaults 2ms and 100ms).
	BackoffBase, BackoffMax time.Duration
	// Seed drives the backoff jitter (and nothing else: trial outcomes
	// come from the wrapped intervener).
	Seed int64
}

// withDefaults resolves the zero values.
func (c RobustConfig) withDefaults() RobustConfig {
	if c.MaxTrials <= 0 {
		c.MaxTrials = 12
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		c.Confidence = 0.99
	}
	if c.ManifestFloor <= 0 || c.ManifestFloor > 1 {
		c.ManifestFloor = 0.5
	}
	if c.FlipCeiling < 0 {
		c.FlipCeiling = 0
	}
	if c.FlipCeiling > 0 && c.FlipCeiling >= c.ManifestFloor {
		// The SPRT needs separated hypotheses; clamp the ceiling just
		// under the floor rather than failing the run.
		c.FlipCeiling = c.ManifestFloor * 0.5
	}
	if c.RetryLimit < 0 {
		c.RetryLimit = 0
	} else if c.RetryLimit == 0 {
		c.RetryLimit = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 2 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 100 * time.Millisecond
	}
	return c
}

// TrialInfo is the provenance of one robust round: how many trials and
// retries it took and how confident the verdict is.
type TrialInfo struct {
	// Trials counts the Intervene calls that produced observations.
	Trials int
	// Retries counts transient-error retries across those trials.
	Retries int
	// Suspect counts observations discarded for disagreeing with the
	// round's confident verdict (suspected forged failure bits).
	Suspect int
	// Confidence is the verdict's posterior under the configured noise
	// bounds (1 for a conclusive counter-example).
	Confidence float64
	// Escalation is the escalation level the round ran at (0 = normal).
	Escalation int
}

// RobustStats aggregates a RobustIntervener's accounting across rounds.
type RobustStats struct {
	// Rounds counts Intervene/InterveneEscalated calls.
	Rounds int
	// Trials counts underlying intervener executions that returned
	// observations; Retries counts transient-error retries on top.
	Trials, Retries int
	// Recovered counts panics recovered from the wrapped intervener.
	Recovered int
	// Suspect counts observations discarded as verdict-inconsistent.
	Suspect int
	// Undecided counts rounds that hit MaxTrials without reaching the
	// confidence bound and fell back to the majority verdict.
	Undecided int
}

// InterventionPanicError wraps a panic recovered from a wrapped
// intervener so one crashing trial surfaces as a retryable error
// instead of killing the discovery run.
type InterventionPanicError struct {
	// Preds is the group whose trial panicked.
	Preds []predicate.ID
	// Value is the recovered panic value.
	Value any
}

func (e *InterventionPanicError) Error() string {
	return fmt.Sprintf("core: intervention trial on %v panicked: %v", e.Preds, e.Value)
}

// TrialIntervener is implemented by interveners that run adaptive
// repeated trials. The robust scheduler uses it to escalate retests
// during contradiction repair and to surface trial provenance in
// RoundMeta.
type TrialIntervener interface {
	Intervener
	// InterveneEscalated is Intervene with the trial budget and
	// confidence bound scaled up by the escalation level (level 0 is
	// plain Intervene).
	InterveneEscalated(ctx context.Context, preds []predicate.ID, escalation int) ([]Observation, error)
	// LastInfo returns the provenance of the most recent round. The
	// single-decision-thread calling convention of the scheduler makes
	// the read race-free.
	LastInfo() TrialInfo
}

// RobustIntervener wraps an unreliable Intervener with the adaptive
// trial oracle. It is itself an Intervener: the discovery logic and the
// scheduler use it like any other, and the returned observations are
// filtered to the evidence consistent with the round's confident
// verdict (a suspected-forged failure bit never reaches Definition 2's
// pruning rules).
//
// Concurrency: calls follow the scheduler's single-decision-thread
// convention; the internal mutex only guards the stats snapshot.
type RobustIntervener struct {
	inner Intervener
	cfg   RobustConfig
	rng   *rand.Rand

	mu    sync.Mutex
	stats RobustStats
	last  TrialInfo
}

var _ TrialIntervener = (*RobustIntervener)(nil)

// NewRobustIntervener wraps inner with the adaptive trial oracle.
func NewRobustIntervener(inner Intervener, cfg RobustConfig) *RobustIntervener {
	cfg = cfg.withDefaults()
	return &RobustIntervener{
		inner: inner,
		cfg:   cfg,
		rng:   rngfast.New(cfg.Seed),
	}
}

// Inner returns the wrapped intervener.
func (r *RobustIntervener) Inner() Intervener { return r.inner }

// Stats returns a snapshot of the accumulated accounting.
func (r *RobustIntervener) Stats() RobustStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// LastInfo implements TrialIntervener.
func (r *RobustIntervener) LastInfo() TrialInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// Intervene implements core.Intervener with sequential early-stopping
// repeated trials.
func (r *RobustIntervener) Intervene(ctx context.Context, preds []predicate.ID) ([]Observation, error) {
	return r.InterveneEscalated(ctx, preds, 0)
}

// InterveneEscalated implements TrialIntervener: escalation scales the
// trial cap and tightens the confidence bound, for contradiction-repair
// retests that must outvote an earlier normal-budget verdict.
func (r *RobustIntervener) InterveneEscalated(ctx context.Context, preds []predicate.ID, escalation int) ([]Observation, error) {
	if escalation < 0 {
		escalation = 0
	}
	maxTrials := r.cfg.MaxTrials * (1 + escalation)
	// Log-odds acceptance threshold: ln(C/(1-C)), scaled by escalation.
	thresh := math.Log(r.cfg.Confidence/(1-r.cfg.Confidence)) * float64(1+escalation)

	info := TrialInfo{Escalation: escalation}
	var all []Observation
	failTrials, cleanTrials := 0, 0
	llr := 0.0 // log-likelihood ratio persisted-vs-stopped (SPRT mode)
	verdictFailed, decided := false, false
	for info.Trials < maxTrials {
		obs, retries, err := r.trial(ctx, preds)
		info.Retries += retries
		if err != nil {
			r.record(info)
			return nil, err
		}
		info.Trials++
		all = append(all, obs...)
		failed := anyFailed(obs)
		if failed {
			failTrials++
		} else {
			cleanTrials++
		}
		if r.cfg.FlipCeiling == 0 {
			if failed {
				// A failing run is a conclusive counter-example.
				verdictFailed, decided = true, true
				info.Confidence = 1
				break
			}
			// All-clean so far: stop once a persisting failure would
			// have missed every trial with probability < 1-Confidence
			// (tightened by escalation via the log-odds threshold).
			missAll := math.Pow(1-r.cfg.ManifestFloor, float64(cleanTrials))
			if conf := 1 - missAll; logOdds(conf) >= thresh {
				verdictFailed, decided = false, true
				info.Confidence = conf
				break
			}
			continue
		}
		// SPRT between per-trial failure rates ManifestFloor (truly
		// persisting) and FlipCeiling (truly stopped).
		if failed {
			llr += math.Log(r.cfg.ManifestFloor / r.cfg.FlipCeiling)
		} else {
			llr += math.Log((1 - r.cfg.ManifestFloor) / (1 - r.cfg.FlipCeiling))
		}
		if llr >= thresh || llr <= -thresh {
			verdictFailed, decided = llr > 0, true
			info.Confidence = 1 / (1 + math.Exp(-math.Abs(llr)))
			break
		}
	}
	if !decided {
		// Trial cap hit without a decisive bound: majority verdict,
		// with the posterior the evidence actually supports.
		if r.cfg.FlipCeiling == 0 {
			verdictFailed = failTrials > 0
			if verdictFailed {
				info.Confidence = 1
			} else {
				info.Confidence = 1 - math.Pow(1-r.cfg.ManifestFloor, float64(cleanTrials))
			}
		} else {
			verdictFailed = llr > 0
			info.Confidence = 1 / (1 + math.Exp(-math.Abs(llr)))
		}
		r.mu.Lock()
		r.stats.Undecided++
		r.mu.Unlock()
	}

	out := filterToVerdict(all, verdictFailed, r.cfg.FlipCeiling > 0)
	info.Suspect = len(all) - len(out)
	for i := range out {
		out[i].Confidence = info.Confidence
	}
	r.record(info)
	return out, nil
}

// record stores the round's provenance and folds it into the stats.
func (r *RobustIntervener) record(info TrialInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.last = info
	r.stats.Rounds++
	r.stats.Trials += info.Trials
	r.stats.Retries += info.Retries
	r.stats.Suspect += info.Suspect
}

// trial executes one trial with bounded retry and seeded-jitter
// exponential backoff on transient errors; a panic in the wrapped
// intervener is recovered into a retryable error. Context cancellation
// wins immediately, including during a backoff sleep.
func (r *RobustIntervener) trial(ctx context.Context, preds []predicate.ID) (obs []Observation, retries int, err error) {
	backoff := r.cfg.BackoffBase
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, retries, err
		}
		obs, err := r.safeIntervene(ctx, preds)
		if err == nil {
			return obs, retries, nil
		}
		if ctx.Err() != nil {
			// The error is (or raced with) cancellation; cancellation
			// is the deterministic outcome.
			return nil, retries, ctx.Err()
		}
		if attempt >= r.cfg.RetryLimit {
			return nil, retries, fmt.Errorf("core: trial on %v failed after %d retries: %w", preds, retries, err)
		}
		retries++
		// Half-fixed, half-jittered delay: retries never synchronize,
		// and the jitter stream is reproducible per seed.
		d := backoff/2 + time.Duration(r.rng.Int63n(int64(backoff/2)+1))
		timer := time.NewTimer(d)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, retries, ctx.Err()
		case <-timer.C:
		}
		if backoff *= 2; backoff > r.cfg.BackoffMax {
			backoff = r.cfg.BackoffMax
		}
	}
}

// safeIntervene shields the trial from a panicking intervener.
func (r *RobustIntervener) safeIntervene(ctx context.Context, preds []predicate.ID) (obs []Observation, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			r.mu.Lock()
			r.stats.Recovered++
			r.mu.Unlock()
			obs, err = nil, &InterventionPanicError{Preds: preds, Value: rec}
		}
	}()
	return r.inner.Intervene(ctx, preds)
}

func anyFailed(obs []Observation) bool {
	for _, o := range obs {
		if o.Failed {
			return true
		}
	}
	return false
}

// filterToVerdict keeps the observations consistent with the round's
// confident verdict, so a minority of suspected-forged runs cannot
// reach Definition 2's pruning rules:
//
//   - verdict stopped: failing runs are suspected forged and dropped;
//   - verdict persisted: failure-free runs that nevertheless observed
//     predicates are suspect (a persisting failure's clean runs are the
//     ones where the bug never manifested, which observe nothing);
//     empty clean runs are kept — they are harmless to Definition 2 and
//     preserve the per-run record;
//   - verdict persisted under forgeable failure bits (sprt): a failing
//     run that observed nothing is a flipped clean run — a genuine
//     failure manifests its causal chain — and one such run would let
//     Definition 2's counterfactual rule prune every unprotected
//     candidate at once. Dropped, unless that would leave no failing
//     run at all (callers recompute the verdict from the returned
//     observations, so the persisted verdict must stay encoded).
func filterToVerdict(all []Observation, verdictFailed, sprt bool) []Observation {
	out := make([]Observation, 0, len(all))
	nonEmptyFails := 0
	for _, o := range all {
		if o.Failed && o.Observed.Len() > 0 {
			nonEmptyFails++
		}
	}
	for _, o := range all {
		if verdictFailed {
			if !o.Failed && o.Observed.Len() > 0 {
				continue
			}
			if sprt && o.Failed && o.Observed.Len() == 0 && nonEmptyFails > 0 {
				continue
			}
		} else if o.Failed {
			continue
		}
		out = append(out, o)
	}
	return out
}

// logOdds is ln(p/(1-p)), saturating at the float limit for p == 1.
func logOdds(p float64) float64 {
	if p >= 1 {
		return math.Inf(1)
	}
	return math.Log(p / (1 - p))
}
