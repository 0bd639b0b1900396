package aid

import (
	"context"
	"encoding/json"
	"fmt"

	"aid/internal/acdag"
	"aid/internal/core"
	"aid/internal/effects"
	"aid/internal/explain"
	"aid/internal/grouptest"
	"aid/internal/inject"
	"aid/internal/predicate"
	"aid/internal/statdebug"
	"aid/internal/trace"
)

// Variant selects the AID ablation an intervention phase runs.
type Variant string

// The paper's algorithm variants (§7).
const (
	// VariantAID is the full algorithm: branch and predicate pruning.
	VariantAID Variant = "aid"
	// VariantAIDP disables predicate pruning (the paper's AID-P).
	VariantAIDP Variant = "aid-p"
	// VariantAIDPB disables predicate and branch pruning (AID-P-B).
	VariantAIDPB Variant = "aid-p-b"
)

// Pipeline is the public face of AID: collect → extract → rank →
// AC-DAG → intervene → explain, configured once with functional
// options. Stages are individually callable for partial workflows
// (inspect the SD ranking, dump the AC-DAG, analyze an offline corpus)
// and composable end-to-end via Run. A Pipeline is immutable after New
// and safe to reuse across sources; every stage honors its context and
// aborts promptly when cancelled.
type Pipeline struct {
	successes int
	failures  int
	seedCap   int
	replays   int
	seed      int64
	compounds int
	variant   Variant
	workers   int
	observer  Observer
	effects   bool
	baseline  bool
	shared    *SharedScheduler
}

// SharedScheduler is a cross-run intervention memo: runs that attach
// the same SharedScheduler (WithSharedScheduler) reuse each other's
// intervention outcomes, so repeated debugging of the same program
// skips replay bundles already executed. It is the facade's face of the
// core scheduler-sharing contract (previously only the ablation
// variants inside one process used it) and the first step of
// cross-session scheduler reuse: the daemon keys SharedSchedulers by
// tenant and session fingerprint and threads one through every session
// debugging the same target.
//
// Sharing is sound only between runs whose interventions are
// outcome-equivalent — same program, trace corpus, replay seeds, and
// extraction config. The caller owns that keying; the scheduler cannot
// detect a mismatch. Runs sharing a SharedScheduler serialize their
// discovery phases (collection and extraction still overlap): the
// scheduler has a single decision thread by contract, and the memo
// makes the serialized replays cheap. Reports stay byte-identical with
// or without sharing — only RoundMeta provenance (cache hits) differs.
type SharedScheduler struct {
	// sem serializes discovery phases across runs; acquire is
	// ctx-aware so a cancelled run never blocks on a sibling's rounds.
	sem chan struct{}

	// sched is built unbound and keeps only outcomes between runs;
	// acquire binds a run's executor to it.
	sched *core.Scheduler
}

// NewSharedScheduler returns an empty cross-run memo.
func NewSharedScheduler() *SharedScheduler {
	return &SharedScheduler{
		sem:   make(chan struct{}, 1),
		sched: core.NewScheduler(nil, core.SchedulerConfig{}),
	}
}

// acquire claims the single discovery slot, honoring ctx while waiting,
// and binds the run's executor to the scheduler. release unbinds the
// executor before it frees the slot, so a memo held between runs keeps
// only its outcomes, not the last run's corpus, baselines, monitors and
// program.
func (s *SharedScheduler) acquire(ctx context.Context, iv core.Intervener) (sched *core.Scheduler, release func(), err error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	s.sched.Rebind(iv)
	return s.sched, func() {
		s.sched.Rebind(nil)
		<-s.sem
	}, nil
}

// ExportMemo serializes the accumulated intervention memo as a JSON
// snapshot suitable for ImportMemo in a later process. Nil bytes (with
// nil error) mean there is nothing worth persisting. Safe to call at
// any time — including mid-run, where it snapshots whatever outcomes
// have completed — because the underlying cache is lock-guarded; the
// daemon calls it after a session that executed interventions.
func (s *SharedScheduler) ExportMemo() ([]byte, error) {
	entries := s.sched.ExportMemo()
	if len(entries) == 0 {
		return nil, nil
	}
	data, err := json.Marshal(entries)
	if err != nil {
		return nil, fmt.Errorf("aid: export memo: %w", err)
	}
	return data, nil
}

// ImportMemo restores a snapshot produced by ExportMemo, returning how
// many entries it restored. The snapshot's observations share one
// predicate table (core.ShareMemoTable), and its entries merge into the
// cache, existing keys winning. The sharing contract extends across the
// round trip: import only snapshots exported for the same (program,
// corpus, seeds, config) tuple — the daemon guarantees it by persisting
// memos under the session fingerprint and corpus fingerprint they were
// derived over.
func (s *SharedScheduler) ImportMemo(data []byte) (int, error) {
	var entries []core.MemoEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return 0, fmt.Errorf("aid: import memo: %w", err)
	}
	core.ShareMemoTable(entries)
	return s.sched.ImportMemo(entries), nil
}

// Stats snapshots the accumulated scheduler accounting (zero before the
// first run; imports count nothing). The daemon's session status
// endpoint reports the per-session delta of CacheHits/Requests from
// here.
func (s *SharedScheduler) Stats() SchedulerStats {
	return s.sched.Stats()
}

// WithSharedScheduler attaches a cross-run intervention memo; see
// SharedScheduler for the sharing contract.
func WithSharedScheduler(s *SharedScheduler) Option {
	return func(p *Pipeline) { p.shared = s }
}

// Option configures a Pipeline.
type Option func(*Pipeline)

// WithCorpusSize sets the target numbers of successful and failed
// executions to collect (the paper uses 50/50, the default). A negative
// number makes Collect and Run fail.
func WithCorpusSize(successes, failures int) Option {
	return func(p *Pipeline) { p.successes, p.failures = successes, failures }
}

// WithSeedCap bounds how many scheduler seeds collection sweeps
// (default 4000).
func WithSeedCap(n int) Option {
	return func(p *Pipeline) { p.seedCap = n }
}

// WithReplays sets how many failing seeds each intervention round
// re-executes (default 5; §5.3 footnote: several runs per round guard
// against nondeterminism).
func WithReplays(n int) Option {
	return func(p *Pipeline) { p.replays = n }
}

// WithSeed sets the algorithm seed driving tie-breaking (default 1).
func WithSeed(seed int64) Option {
	return func(p *Pipeline) { p.seed = seed }
}

// WithCompounds lets statistical debugging materialize up to n
// conjunction predicates (default 0; §3.2's modeling of
// nondeterministic root causes).
func WithCompounds(n int) Option {
	return func(p *Pipeline) { p.compounds = n }
}

// WithVariant selects the AID ablation (default VariantAID).
func WithVariant(v Variant) Option {
	return func(p *Pipeline) { p.variant = v }
}

// WithWorkers sets the execution-pool width for collection and replay;
// <= 0 means GOMAXPROCS. Reports are bit-identical for any width.
func WithWorkers(n int) Option {
	return func(p *Pipeline) { p.workers = n }
}

// WithObserver streams typed progress events (collection totals,
// extraction counts, per-round intervention outcomes) to o.
func WithObserver(o Observer) Option {
	return func(p *Pipeline) { p.observer = o }
}

// WithEffectAnalysis turns on the static effect-analysis front-end
// (internal/effects) for sources that provide a program. Before
// extraction the pipeline analyzes every function's transitive side
// effects and uses the result two ways: the derived SideEffectFree
// classification widens the hand annotations (so return-value and
// exception interventions become available on provably-safe methods,
// including when no hand annotations exist), and predicates anchored
// entirely in provably-pure functions are pruned before ranking —
// they cannot host a root cause — shrinking the corpus, the AC-DAG,
// and the intervention candidate pools. An EffectsAnalyzed event
// reports the classification and pruning counts, including any hand
// annotations the analysis contradicts.
//
// Off by default: the pipeline then uses hand annotations alone and
// produces byte-identical output to previous releases. Sources
// without a program (offline corpora) are unaffected either way.
func WithEffectAnalysis(on bool) Option {
	return func(p *Pipeline) { p.effects = on }
}

// WithBaseline turns the TAGT baseline in Run on or off (default on).
// With it on, Run also searches the candidate pool by traditional
// adaptive group testing and reports its cost beside AID's, the
// paper's Fig. 7 comparison. With it off, Run skips that search and
// its replays, and the Report leaves out its two TAGT figures; every
// other field is byte-identical. aid serve runs its sessions with it
// off.
func WithBaseline(on bool) Option {
	return func(p *Pipeline) { p.baseline = on }
}

// New builds a Pipeline with the paper's defaults: a 50+50 corpus
// within 4000 seeds, 5 replays per round, seed 1, the full AID variant,
// and the TAGT baseline on.
func New(opts ...Option) *Pipeline {
	p := &Pipeline{
		successes: 50,
		failures:  50,
		seedCap:   4000,
		replays:   5,
		seed:      1,
		variant:   VariantAID,
		baseline:  true,
	}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

func (p *Pipeline) emit(e Event) {
	if p.observer != nil {
		p.observer.OnEvent(e)
	}
}

// coreOptions resolves the variant into core options with observer
// hooks attached.
func (p *Pipeline) coreOptions() (core.Options, error) {
	var opts core.Options
	switch p.variant {
	case "", VariantAID:
		opts = core.AIDOptions(p.seed)
	case VariantAIDP:
		opts = core.AIDPOptions(p.seed)
	case VariantAIDPB:
		opts = core.AIDPBOptions(p.seed)
	default:
		return core.Options{}, fmt.Errorf("aid: unknown variant %q", p.variant)
	}
	if p.observer != nil {
		rounds := 0
		opts.OnRound = func(r core.Round, m core.RoundMeta) {
			rounds++
			// Detach the round's slices from discovery's own log entry
			// once at emission: branch pruning keeps appending to that
			// entry's Pruned backing after the round fires, and a
			// subscriber that appends to a retained event would
			// otherwise race it for the same backing array. One clone is
			// then shared immutably across every subscriber of an
			// Observers fan-out.
			r.Intervened = append([]predicate.ID(nil), r.Intervened...)
			r.Pruned = append([]predicate.ID(nil), r.Pruned...)
			p.emit(RoundDone{
				Index:         rounds,
				Round:         r,
				Batch:         m.Batch,
				CacheHit:      m.CacheHit,
				Trials:        m.Trials,
				Retries:       m.Retries,
				Confidence:    m.Confidence,
				Contradiction: m.Contradiction,
			})
		}
		opts.OnConfirm = func(id predicate.ID) {
			p.emit(CauseConfirmed{ID: id})
		}
	}
	return opts, nil
}

// Collect runs the source's collection under the pipeline's quotas and
// returns the corpus with Set filled: the logs of a source that keeps
// them (every built-in source) are materialized into it, and the later
// stages read Set, so edits to it reach them.
func (p *Pipeline) Collect(ctx context.Context, src TraceSource) (*Traces, error) {
	tr, err := p.collect(ctx, src)
	if err != nil {
		return nil, err
	}
	if tr.logs != nil {
		if tr.Set == nil {
			tr.Set = tr.logs.Set()
		}
		tr.logs = nil
	}
	return tr, nil
}

// collect is Collect without the interchange form: the source's logs,
// when it keeps them, stay the corpus.
func (p *Pipeline) collect(ctx context.Context, src TraceSource) (*Traces, error) {
	if p.successes < 0 || p.failures < 0 {
		return nil, fmt.Errorf("aid: corpus size %d+%d: quotas must not be negative", p.successes, p.failures)
	}
	tr, err := src.Collect(ctx, CollectSpec{
		Successes: p.successes,
		Failures:  p.failures,
		SeedCap:   p.seedCap,
		Workers:   p.workers,
		Observer:  p.observer,
	})
	if err != nil {
		return nil, err
	}
	succ, fail := tr.counts()
	p.emit(TracesCollected{Source: src.Label(), Successes: succ, Failures: fail})
	return tr, nil
}

// Extract evaluates the predicate vocabulary over the corpus,
// materializing compound predicates when configured. It reads the
// collected logs when the source kept them, and otherwise interns Set
// into log form once (trace.Intern).
func (p *Pipeline) Extract(tr *Traces) *Corpus {
	an := p.applyEffects(tr)
	logs := tr.logs
	if logs == nil {
		logs = trace.Intern(tr.Set)
	}
	corpus := predicate.ExtractLogs(logs, tr.Config)
	if p.compounds > 0 {
		statdebug.GenerateCompounds(corpus, p.compounds)
	}
	p.emitEffects(an, corpus)
	p.emit(PredicatesExtracted{Total: len(corpus.Preds)})
	return corpus
}

// applyEffects runs the static effect analysis (WithEffectAnalysis)
// and folds its result into tr.Config: the safety oracle becomes
// hand-annotation OR derived-side-effect-free (derived alone when no
// hand oracle is set), and the pruning oracle is installed. The config
// is mutated on tr deliberately — the intervention phase's replay
// extraction reads the same Traces, and extraction and replay must
// agree on the predicate vocabulary. Returns nil when the analysis is
// off or the source has no program.
func (p *Pipeline) applyEffects(tr *Traces) *effects.Analysis {
	if !p.effects || tr.Program == nil {
		return nil
	}
	an := effects.Analyze(tr.Program)
	hand := tr.Config.SideEffectFree
	tr.Config.SideEffectFree = func(method string) bool {
		return (hand != nil && hand(method)) || an.SideEffectFree(method)
	}
	tr.Config.PureMethods = an.Prunable
	return an
}

// emitEffects reports the effect-analysis stage (no-op for a nil
// analysis).
func (p *Pipeline) emitEffects(an *effects.Analysis, corpus *Corpus) {
	if an == nil {
		return
	}
	ev := EffectsAnalyzed{
		Functions:    len(an.Funcs),
		Pruned:       corpus.EffectPruned(),
		Contradicted: len(an.Contradictions()),
	}
	for fn := range an.Funcs {
		if an.SideEffectFree(fn) {
			ev.SideEffectFree++
		}
		if an.Prunable(fn) {
			ev.Prunable++
		}
	}
	p.emit(ev)
}

// Ranking is the statistical-debugging stage's output: the
// fully-discriminative predicates plus the full SD score table.
type Ranking struct {
	corpus *Corpus
	// Fully lists the fully-discriminative predicates (precision and
	// recall 1.0) — the AC-DAG candidates.
	Fully []PredicateID
}

// Format renders the SD ranking as a table, what a statistical
// debugger would hand the developer (topN = 0 prints everything).
func (r *Ranking) Format(topN int) string {
	return statdebug.FormatScores(r.corpus, topN)
}

// Rank runs statistical debugging over the corpus.
func (p *Pipeline) Rank(corpus *Corpus) *Ranking {
	fully := statdebug.FullyDiscriminative(corpus)
	p.emit(Ranked{FullyDiscriminative: len(fully)})
	return &Ranking{corpus: corpus, Fully: fully}
}

// BuildDAG constructs the AC-DAG over the candidate predicates plus F.
func (p *Pipeline) BuildDAG(corpus *Corpus, candidates []PredicateID) (*DAG, *DAGReport, error) {
	dag, report, err := acdag.Build(corpus, candidates, acdag.BuildOptions{})
	if err != nil {
		return nil, nil, err
	}
	p.emit(DAGBuilt{Nodes: dag.Len(), Unsafe: len(report.Unsafe)})
	return dag, report, nil
}

// executor builds the simulator-backed intervener for the traces.
func (p *Pipeline) executor(tr *Traces, corpus *Corpus) (*inject.Executor, error) {
	if tr.Program == nil {
		return nil, fmt.Errorf("aid: source %q provides no program; interventions are unavailable on an offline corpus (attach one, e.g. TraceFileSource.ForStudy)", tr.Source)
	}
	replay := tr.FailSeeds
	if p.replays > 0 && len(replay) > p.replays {
		replay = replay[:p.replays]
	}
	return &inject.Executor{
		Prog:       tr.Program,
		Corpus:     corpus,
		Seeds:      replay,
		Cfg:        tr.Config,
		FailureSig: tr.FailureSig,
		MaxSteps:   tr.MaxSteps,
		Workers:    p.workers,
	}, nil
}

// discover is the shared body of Discover and Run: it builds the
// executor, runs core discovery, and emits DiscoveryDone. The executor
// is returned so Run can reuse it (and its quarantine) as the TAGT
// oracle.
func (p *Pipeline) discover(ctx context.Context, tr *Traces, corpus *Corpus, dag *DAG) (*Result, *inject.Executor, error) {
	exec, err := p.executor(tr, corpus)
	if err != nil {
		return nil, nil, err
	}
	opts, err := p.coreOptions()
	if err != nil {
		return nil, nil, err
	}

	var sharedSched *core.Scheduler
	var sharedPre SchedulerStats
	if p.shared != nil {
		// Cross-run memo sharing: claim the shared scheduler's single
		// discovery slot (ctx-aware, so cancellation never blocks on a
		// sibling run's rounds), bound to this run's executor, and
		// route all interventions through the carried-over cache.
		var release func()
		sharedSched, release, err = p.shared.acquire(ctx, exec)
		if err != nil {
			return nil, nil, err
		}
		defer release()
		// Snapshot the memo accounting while holding the slot: sibling
		// runs are excluded, so the SchedulerUsage delta emitted below is
		// exactly this run's.
		sharedPre = sharedSched.Stats()
		opts.Scheduler = sharedSched
	}

	res, err := core.Discover(ctx, dag, exec, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("aid: %s: %w", tr.Source, err)
	}
	if sharedSched != nil {
		// Still inside the discovery slot (released when this function
		// returns), so the delta cannot fold in a sibling run's rounds.
		post := sharedSched.Stats()
		p.emit(SchedulerUsage{
			Requests:   post.Requests - sharedPre.Requests,
			CacheHits:  post.CacheHits - sharedPre.CacheHits,
			Executions: post.Executions - sharedPre.Executions,
		})
	}
	p.emit(DiscoveryDone{
		RootCause:     res.RootCause(),
		PathLen:       len(res.Path) - 1,
		Interventions: res.Interventions(),
	})
	return res, exec, nil
}

// Discover runs the causality-guided intervention phase (Algorithms
// 1–3) against the AC-DAG, re-executing the source's program under
// fault-injection plans. Cancelling ctx aborts before the next round
// (and mid-round, within one replay task-drain) with ctx's error.
func (p *Pipeline) Discover(ctx context.Context, tr *Traces, corpus *Corpus, dag *DAG) (*Result, error) {
	res, _, err := p.discover(ctx, tr, corpus, dag)
	return res, err
}

// Explain renders the discovery result as the paper's §7.1-style
// narrative.
func (p *Pipeline) Explain(corpus *Corpus, res *Result) string {
	return explain.Build(corpus, res).String()
}

// Run executes the pipeline end-to-end: collect, extract, rank, build
// the AC-DAG, discover the causal path, run the TAGT baseline on the
// same candidate pool (unless WithBaseline(false)), and assemble the
// serializable Report. The output is bit-identical for any worker
// count, and — for the built-in case studies — to the pre-facade
// runner kept as a test oracle in internal/oracle/caserun.
func (p *Pipeline) Run(ctx context.Context, src TraceSource) (*Report, error) {
	tr, err := p.collect(ctx, src)
	if err != nil {
		return nil, err
	}
	corpus := p.Extract(tr)
	ranking := p.Rank(corpus)
	dag, _, err := p.BuildDAG(corpus, ranking.Fully)
	if err != nil {
		return nil, err
	}

	aidRes, exec, err := p.discover(ctx, tr, corpus, dag)
	if err != nil {
		return nil, err
	}

	var pool []PredicateID
	noPath := 0
	for _, id := range dag.Nodes() {
		if id == FailureID {
			continue
		}
		pool = append(pool, id)
		if !dag.Precedes(id, FailureID) {
			noPath++
		}
	}
	pathLen := len(aidRes.Path) - 1 // excluding F
	tagtTests, tagtBound := 0, 0
	if p.baseline {
		// TAGT runs on the same safely-intervenable candidate pool with
		// the same intervention oracle, but no DAG knowledge. Its oracle
		// needs one bit per group — does the failure persist? — so it
		// asks the verdict-only query: no trace is assembled or
		// re-extracted, and a group stops replaying at its first
		// persisting seed. The test oracle internal/oracle/caserun keeps
		// the Intervene-derived oracle as the reference.
		oracle := func(group []predicate.ID) (bool, error) {
			persists, err := exec.Persists(ctx, group)
			return !persists, err
		}
		tagtRes, err := grouptest.Adaptive(pool, oracle, p.seed)
		if err != nil {
			return nil, fmt.Errorf("aid: %s: TAGT: %w", src.Label(), err)
		}
		tagtTests, tagtBound = tagtRes.Tests, grouptest.UpperBound(len(pool), pathLen)
	}

	s1, s2 := aidRes.PruningStats()
	report := &Report{
		Study:             tr.Source,
		Issue:             tr.Issue,
		Description:       tr.Description,
		TotalPredicates:   len(corpus.Preds),
		Discriminative:    len(ranking.Fully),
		DAGNodes:          dag.Len(),
		NoPathToF:         noPath,
		CausalPathLen:     pathLen,
		AIDInterventions:  aidRes.Interventions(),
		TAGTInterventions: tagtTests,
		TAGTWorstCase:     tagtBound,
		RootCause:         string(aidRes.RootCause()),
		Path:              idStrings(aidRes.Path),
		Explanation:       make([]string, len(aidRes.Path)),
		Narrative:         explain.Build(corpus, aidRes).String(),
		Rounds:            make([]ReportRound, len(aidRes.Rounds)), // never nil: no rounds serialize as []
		PruningS1:         s1,
		PruningS2:         s2,
		Result:            aidRes,
		noBaseline:        !p.baseline,
	}
	for i, id := range aidRes.Path {
		desc := string(id)
		if pr := corpus.Pred(id); pr != nil {
			desc = pr.String()
		}
		report.Explanation[i] = fmt.Sprintf("(%d) %s", i+1, desc)
	}
	for i, r := range aidRes.Rounds {
		report.Rounds[i] = ReportRound{
			Phase:      r.Phase,
			Stopped:    r.Stopped,
			Confirmed:  string(r.Confirmed),
			Intervened: idStrings(r.Intervened),
			Pruned:     idStrings(r.Pruned),
		}
	}
	return report, nil
}

// idStrings converts predicate IDs to plain strings. An empty list
// stays nil, so omitempty drops an empty Pruned.
func idStrings(ids []PredicateID) []string {
	if len(ids) == 0 {
		return nil
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return out
}
