package aid

import "fmt"

// Observer receives typed progress events while a Pipeline runs. It
// replaces ad-hoc printing: the CLI's -rounds log, the examples'
// progress lines, and a future service's streaming endpoints are all
// observers over the same event stream.
//
// Events are emitted synchronously from the pipeline goroutine in
// deterministic order; an observer must not block for long and must not
// mutate pipeline state. A nil observer is silently ignored.
type Observer interface {
	OnEvent(e Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(e Event)

// OnEvent calls f.
func (f ObserverFunc) OnEvent(e Event) { f(e) }

// Observers fans one event stream out to several observers in order.
// Events are delivered by value and shared immutably: the pipeline
// detaches an event's slice-valued state from its own mutable
// bookkeeping once at emission — not once per subscriber — so a
// subscriber may retain events indefinitely, and appending to a
// retained event's slices cannot corrupt the pipeline's round log or
// a sibling's view. The flip side of sharing one clone is that
// subscribers must treat received slices as read-only: an in-place
// element write would be visible to the other subscribers. Nil
// entries are skipped.
type Observers []Observer

// OnEvent delivers e to each observer in order.
func (os Observers) OnEvent(e Event) {
	for _, o := range os {
		if o != nil {
			o.OnEvent(e)
		}
	}
}

// Event is a typed pipeline progress event. The concrete types are
// CollectProgress, TracesCollected, EffectsAnalyzed,
// PredicatesExtracted, Ranked, DAGBuilt, RoundDone,
// ContradictionDetected, SchedulerUsage, CauseConfirmed,
// DiscoveryDone, and StateRecovered.
type Event interface {
	// String renders the event as a one-line log message.
	String() string
	event()
}

// CollectProgress reports the running totals of a collection sweep
// after each seed chunk.
type CollectProgress struct {
	// Successes and Failures are the counts gathered so far.
	Successes, Failures int
	// SeedsSwept is the highest scheduler seed swept so far.
	SeedsSwept int64
}

func (e CollectProgress) String() string {
	return fmt.Sprintf("collect: %d successes, %d failures after %d seeds",
		e.Successes, e.Failures, e.SeedsSwept)
}

// TracesCollected reports a completed collection stage.
type TracesCollected struct {
	// Source labels the trace source.
	Source string
	// Successes and Failures are the corpus counts.
	Successes, Failures int
}

func (e TracesCollected) String() string {
	return fmt.Sprintf("collected from %s: %d successes, %d failures",
		e.Source, e.Successes, e.Failures)
}

// EffectsAnalyzed reports the static effect-analysis stage
// (WithEffectAnalysis): the purity classification of the source's
// program and what effect-guided pruning removed from the corpus.
type EffectsAnalyzed struct {
	// Functions counts the analyzed functions.
	Functions int
	// SideEffectFree counts functions the analysis derives
	// side-effect-free (no transitive shared-state write).
	SideEffectFree int
	// Prunable counts functions at or below the pruning purity bar
	// (deterministic over at most caller-local state).
	Prunable int
	// Pruned counts predicates dropped from the corpus because every
	// anchor method was prunable.
	Pruned int
	// Contradicted counts hand SideEffectFree annotations the analysis
	// refutes (the annotation says safe, the effects say shared-state
	// write).
	Contradicted int
}

func (e EffectsAnalyzed) String() string {
	s := fmt.Sprintf("effect analysis: %d/%d functions side-effect-free (%d prunable), %d predicates pruned",
		e.SideEffectFree, e.Functions, e.Prunable, e.Pruned)
	if e.Contradicted > 0 {
		s += fmt.Sprintf("; %d hand annotations contradicted", e.Contradicted)
	}
	return s
}

// PredicatesExtracted reports a completed extraction stage.
type PredicatesExtracted struct {
	// Total counts every predicate extraction produced (including
	// materialized compounds).
	Total int
}

func (e PredicatesExtracted) String() string {
	return fmt.Sprintf("extracted %d predicates", e.Total)
}

// Ranked reports the statistical-debugging stage.
type Ranked struct {
	// FullyDiscriminative counts the predicates SD keeps.
	FullyDiscriminative int
}

func (e Ranked) String() string {
	return fmt.Sprintf("statistical debugging kept %d fully-discriminative predicates",
		e.FullyDiscriminative)
}

// DAGBuilt reports a constructed AC-DAG.
type DAGBuilt struct {
	// Nodes counts the safely-intervenable candidates plus F.
	Nodes int
	// Unsafe counts predicates excluded for lacking a safe intervention.
	Unsafe int
}

func (e DAGBuilt) String() string {
	return fmt.Sprintf("AC-DAG built: %d nodes (%d predicates excluded as unsafe)",
		e.Nodes, e.Unsafe)
}

// RoundDone reports one completed intervention round, including what it
// pruned and how the scheduler produced its outcome. The confirmed
// cause, if any, follows as a CauseConfirmed event.
type RoundDone struct {
	// Index is the 1-based round number.
	Index int
	// Round is the round's log entry.
	Round Round
	// Batch is the 1-based ordinal of the scheduler execution that
	// produced the round's outcome; a cache hit repeats the ordinal of
	// the execution it serves.
	Batch int
	// CacheHit reports the outcome was served from the scheduler's memo
	// cache without starting new replays.
	CacheHit bool
	// Trials and Retries report the adaptive trial oracle's cost for
	// the round (zero outside noise-tolerant mode; see
	// WithNoiseTolerance).
	Trials, Retries int
	// Confidence is the round verdict's posterior under the configured
	// noise bounds (zero outside noise-tolerant mode).
	Confidence float64
	// Contradiction reports the round's outcome initially contradicted
	// a recorded verdict and went through escalated repair.
	Contradiction bool
}

func (e RoundDone) String() string {
	verdict := "failure persisted"
	if e.Round.Stopped {
		verdict = "failure stopped"
	}
	suffix := ""
	if e.CacheHit {
		suffix = " [cached]"
	}
	if e.Trials > 0 {
		suffix += fmt.Sprintf(" [%d trials, conf %.3f", e.Trials, e.Confidence)
		if e.Retries > 0 {
			suffix += fmt.Sprintf(", %d retries", e.Retries)
		}
		if e.Contradiction {
			suffix += ", repaired contradiction"
		}
		suffix += "]"
	}
	return fmt.Sprintf("round %d [%s, batch %d]: intervened on %d predicates -> %s (%d pruned)%s",
		e.Index, e.Round.Phase, e.Batch, len(e.Round.Intervened), verdict, len(e.Round.Pruned), suffix)
}

// ContradictionDetected reports the robust scheduler caught a
// monotonicity violation between two round verdicts — intervening on a
// subset stopped the failure while a superset let it persist — and ran
// escalated retests to repair it. Emitted only in noise-tolerant mode.
type ContradictionDetected struct {
	// Stopped is the subset group whose verdict was "failure stopped";
	// Persisted is the superset whose verdict was "failure persisted".
	Stopped, Persisted []PredicateID
	// Resolved reports the escalated retests restored consistency; when
	// false the persisted verdict was trusted and the stopped verdict
	// discarded.
	Resolved bool
}

func (e ContradictionDetected) String() string {
	state := "repaired"
	if !e.Resolved {
		state = "unresolved; trusting persisted side"
	}
	return fmt.Sprintf("contradiction: stopped(%d preds) ⊆ persisted(%d preds) — %s",
		len(e.Stopped), len(e.Persisted), state)
}

// SchedulerUsage reports how much of a run's intervention work the
// attached SharedScheduler served from its cross-run memo. Emitted once
// per run that uses WithSharedScheduler, after the last round and
// before DiscoveryDone, while the run still holds the scheduler's
// discovery slot — so the counts are exactly this run's, never folded
// with a sibling run sharing the same memo.
type SchedulerUsage struct {
	// Requests counts the run's outcome requests; CacheHits how many
	// were served from the shared memo without new replays; Executions
	// how many replay bundles the run actually started.
	Requests, CacheHits, Executions int
}

func (e SchedulerUsage) String() string {
	return fmt.Sprintf("shared scheduler: %d/%d requests served from memo (%d executed)",
		e.CacheHits, e.Requests, e.Executions)
}

// CauseConfirmed reports a predicate confirmed causal.
type CauseConfirmed struct {
	// ID is the confirmed predicate.
	ID PredicateID
}

func (e CauseConfirmed) String() string {
	return fmt.Sprintf("confirmed cause: %s", e.ID)
}

// DiscoveryDone reports a completed discovery phase.
type DiscoveryDone struct {
	// RootCause is C0 ("" when no cause was confirmed).
	RootCause PredicateID
	// PathLen is the causal path length excluding F.
	PathLen int
	// Interventions is the number of rounds spent.
	Interventions int
}

func (e DiscoveryDone) String() string {
	return fmt.Sprintf("discovery done: root cause %s, %d-predicate path, %d interventions",
		e.RootCause, e.PathLen, e.Interventions)
}

// StateRecovered reports what the daemon restored from its persistence
// directory at startup (aid serve -persist). Emitted once, before any
// session runs. Recovery follows warm-start degradation: corruption is
// counted and dropped, never fatal, so RecordsDropped > 0 (or ColdStart)
// means lost cache warmth, not lost correctness.
type StateRecovered struct {
	// Corpora counts tenant corpora found intact in the store.
	Corpora int
	// Memos counts persisted memo snapshots restored; MemoEntries the
	// individual intervention outcomes they carried.
	Memos, MemoEntries int
	// RecordsKept and RecordsDropped count memo files, one per persisted
	// memo: read intact vs. dropped because their checksum or schema
	// failed. A dropped file costs only its own memo.
	RecordsKept, RecordsDropped int
	// Invalidated counts intact memo files discarded because the corpus
	// they were derived over changed (fingerprint mismatch) or vanished —
	// persisted answers are never trusted stale.
	Invalidated int
	// ColdStart reports that memo files were found but none was intact,
	// so the daemon started from empty state.
	ColdStart bool
}

func (e StateRecovered) String() string {
	if e.ColdStart {
		return fmt.Sprintf("state recovered: cold start (%d records dropped)", e.RecordsDropped)
	}
	s := fmt.Sprintf("state recovered: %d corpora, %d memos (%d outcomes) from %d records",
		e.Corpora, e.Memos, e.MemoEntries, e.RecordsKept)
	if e.RecordsDropped > 0 {
		s += fmt.Sprintf(", %d records dropped", e.RecordsDropped)
	}
	if e.Invalidated > 0 {
		s += fmt.Sprintf(", %d invalidated", e.Invalidated)
	}
	return s
}

func (CollectProgress) event()       {}
func (TracesCollected) event()       {}
func (EffectsAnalyzed) event()       {}
func (PredicatesExtracted) event()   {}
func (Ranked) event()                {}
func (DAGBuilt) event()              {}
func (RoundDone) event()             {}
func (ContradictionDetected) event() {}
func (SchedulerUsage) event()        {}
func (CauseConfirmed) event()        {}
func (DiscoveryDone) event()         {}
func (StateRecovered) event()        {}
