// Package inject translates predicate repair recipes into simulator
// fault-injection plans and re-executes applications under them,
// closing the loop between AID's algorithms (package core) and the
// application substrate (package sim).
//
// It plays the role of the paper's LFI-style fault injector (§3.3,
// Appendix B): each fully-discriminative predicate carries a recipe for
// forcing it to its value in successful executions, and an intervention
// round applies the recipes of the chosen predicate group in a single
// re-execution plan.
package inject

import (
	"context"
	"fmt"
	"sync"
	"time"

	"aid/internal/core"
	"aid/internal/par"
	"aid/internal/predicate"
	"aid/internal/sim"
	"aid/internal/trace"
)

// PlanFor builds the sim.Plan that simultaneously repairs the given
// predicates. Predicates must exist in the corpus and carry a usable
// repair (Kind != IvNone). Every recipe composes into one plan in
// place: copying the plan per predicate was quadratic on TAGT's
// whole-pool groups. The map is made with room for one entry per
// predicate: a recipe touches one or two methods and a large group's
// predicates share methods, so it seldom grows while recipes fold in.
func PlanFor(c *predicate.Corpus, preds []predicate.ID) (sim.Plan, error) {
	plan := make(sim.Plan, len(preds))
	for _, id := range preds {
		p := c.Pred(id)
		if p == nil {
			return nil, fmt.Errorf("inject: unknown predicate %q", id)
		}
		if err := addIntervention(plan, string(id), p.Repair); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// addIntervention composes one repair recipe's injections into plan.
func addIntervention(plan sim.Plan, tag string, iv predicate.Intervention) error {
	switch iv.Kind {
	case predicate.IvNone:
		return fmt.Errorf("inject: predicate %s has no repair", tag)
	case predicate.IvLockMethods:
		mu := "aid.lock:" + tag
		for _, m := range iv.Methods {
			plan.Add(m, sim.MethodInjection{GlobalLocks: []string{mu}})
		}
	case predicate.IvCatchException:
		for _, m := range iv.Methods {
			plan.Add(m, sim.MethodInjection{CatchExceptions: true, CatchValue: iv.Value})
		}
	case predicate.IvPrematureReturn:
		for _, m := range iv.Methods {
			if iv.Void {
				plan.Add(m, sim.MethodInjection{ForceReturnVoid: true})
			} else {
				v := iv.Value
				plan.Add(m, sim.MethodInjection{ForceReturn: &v})
			}
		}
	case predicate.IvDelayReturn:
		for _, m := range iv.Methods {
			plan.Add(m, sim.MethodInjection{DelayReturn: trace.Time(iv.Delay)})
		}
	case predicate.IvOverrideReturn:
		for _, m := range iv.Methods {
			v := iv.Value
			plan.Add(m, sim.MethodInjection{OverrideReturn: &v})
		}
	case predicate.IvEnforceOrder:
		if len(iv.Methods) != 2 {
			return fmt.Errorf("inject: order intervention %s needs 2 methods, got %d", tag, len(iv.Methods))
		}
		flag := "aid.order:" + tag
		plan.Add(iv.Methods[0], sim.MethodInjection{SignalAfter: []sim.Signal{{Var: flag, Val: 1}}})
		plan.Add(iv.Methods[1], sim.MethodInjection{WaitBefore: []sim.Signal{{Var: flag, Val: 1}}})
	case predicate.IvGroup:
		for i, part := range iv.Parts {
			if err := addIntervention(plan, fmt.Sprintf("%s.%d", tag, i), part); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("inject: unknown intervention kind %d for %s", iv.Kind, tag)
	}
	return nil
}

// Executor is a core.Intervener backed by the simulator: each round
// re-executes the program under the merged injection plan for every
// replay seed and reports which corpus predicates each replay exhibits,
// judged against the original success baselines by the corpus's
// compiled monitors (predicate.Monitors).
type Executor struct {
	// Prog is the application under debugging.
	Prog *sim.Program
	// Corpus holds the predicates (with repairs) from the SD phase.
	Corpus *predicate.Corpus
	// Baselines are the successful executions from the SD phase; the
	// monitors compile their duration, return-value, order and
	// atomicity baselines from them once, so every round judges replays
	// against the corpus's own success baselines.
	Baselines []trace.Execution
	// Seeds are the scheduler seeds to replay under each intervention —
	// typically the seeds that produced failures (§5.3 footnote: a
	// program is executed multiple times per intervention).
	Seeds []int64
	// Cfg is the extraction configuration used in the SD phase.
	Cfg predicate.Config
	// FailureSig scopes the failure predicate to one failure group
	// (§5.1): an intervened run that crashes with a different signature
	// is a different bug, not a persistence of this one. Empty matches
	// any failure.
	FailureSig string
	// MaxSteps bounds each re-execution (0 = sim default).
	MaxSteps int
	// WallBudget bounds each re-execution's real elapsed time (0 =
	// unbounded). A replay that exceeds it is quarantined and counted
	// as a missed run, like a panicking one.
	WallBudget time.Duration
	// Workers is the pool width for replaying Seeds concurrently within
	// one intervention round (and, for InterveneBatch, across every
	// group of the batch); <= 0 means GOMAXPROCS. Replays are consumed
	// in seed order, so observations are identical for any width.
	Workers int
	// RunsUsed counts total re-executions across rounds (for reporting).
	// Guarded by mu: an Executor may serve calls from several goroutines
	// at once.
	RunsUsed int
	// Missed counts replays that produced no observation because their
	// (plan, seed) pair panicked, blew the wall budget, or was already
	// quarantined. Guarded by mu, like RunsUsed.
	Missed int

	// mu serializes the executor's mutable state: the run counters and
	// the monitors, which reuse their scratch across replays. Replays
	// themselves are pure and run outside the lock.
	mu sync.Mutex
	// monitors answer each replay's observation. They are compiled on
	// first use, so Corpus and Baselines must not change afterwards.
	monitors *predicate.Monitors

	// qmu guards the quarantine. It is separate from mu because replays
	// consult it concurrently from the worker pool, outside the
	// observation lock.
	qmu         sync.Mutex
	quarantined map[string]bool
	quarantine  []QuarantinedReplay
}

// QuarantinedReplay records one (plan, seed) pair removed from service:
// its replay panicked or exceeded the wall budget, and later rounds
// skip it (counted as a missed run) instead of crashing again.
type QuarantinedReplay struct {
	// Group is the forced-predicate group whose plan crashed.
	Group []predicate.ID
	// Seed is the scheduler seed of the crashing replay.
	Seed int64
	// Err is the contained failure (*sim.ReplayPanicError or
	// *sim.BudgetError).
	Err error
}

// Quarantined returns the quarantined (plan, seed) pairs in detection
// order.
func (e *Executor) Quarantined() []QuarantinedReplay {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return append([]QuarantinedReplay(nil), e.quarantine...)
}

// quarantineKey identifies a (plan, seed) pair: group membership
// (order-insensitive) plus seed.
func quarantineKey(group []predicate.ID, seed int64) string {
	return predicate.GroupKey(group) + "\x00" + fmt.Sprint(seed)
}

func (e *Executor) isQuarantined(group []predicate.ID, seed int64) bool {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	// The key joins the whole group; skip building it while nothing is
	// quarantined (the common case, and TAGT's groups span the pool).
	return len(e.quarantined) > 0 && e.quarantined[quarantineKey(group, seed)]
}

func (e *Executor) addQuarantine(group []predicate.ID, seed int64, err error) {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	if e.quarantined == nil {
		e.quarantined = map[string]bool{}
	}
	key := quarantineKey(group, seed)
	if e.quarantined[key] {
		return
	}
	e.quarantined[key] = true
	e.quarantine = append(e.quarantine, QuarantinedReplay{
		Group: append([]predicate.ID(nil), group...),
		Seed:  seed,
		Err:   err,
	})
}

// replayHook, when non-nil, runs at the start of every guarded replay,
// inside the recover scope — tests use it to inject panics and stalls
// at exact (group, seed) coordinates.
var replayHook func(group []predicate.ID, seed int64)

// runOne executes one guarded replay, assembling its trace only when
// keep accepts the verdict (nil keep: always). Every inject replay
// routes through here: a panic anywhere inside — the hook, plan
// compilation quirks surfacing at run time, or the engine itself — is
// recovered into an error instead of escaping through par.Map as a
// process-level round failure.
func (e *Executor) runOne(pp *sim.Prepared, group []predicate.ID, seed int64, keep func(sim.Verdict) bool) (exec trace.Execution, v sim.Verdict, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			exec, v, err = trace.Execution{}, sim.Verdict{}, &sim.ReplayPanicError{Seed: seed, Value: rec}
		}
	}()
	if h := replayHook; h != nil {
		h(group, seed)
	}
	return pp.RunGuardedIf(seed, sim.Budget{MaxSteps: e.MaxSteps, WallClock: e.WallBudget}, keep)
}

// persists reports whether a replay verdict is a persistence of the
// executor's failure group (§5.1): a crash with another signature is a
// different bug.
func (e *Executor) persists(v sim.Verdict) bool {
	return v.Failed && (e.FailureSig == "" || v.Sig == e.FailureSig)
}

// verdictOnly is the keep policy of replays whose trace nobody reads.
func verdictOnly(sim.Verdict) bool { return false }

// Persists reports whether the failure persists under the group's
// intervention: whether some replay seed still fails with the
// executor's failure signature. It answers Intervene's question "did
// some observation fail?" for oracles that need only that bit (TAGT):
// the group's plan is prepared once, the seeds replay in seed order
// without assembling a trace or re-extracting predicates, and the sweep
// stops at the first seed where the failure persists. Guard, quarantine
// and failure-signature rules are Intervene's, and so is the error when
// every replay is quarantined. Replays run sequentially at every pool
// width, so the verdict, the quarantine list and RunsUsed do not depend
// on Workers. Cancelling ctx stops before the next replay with ctx's
// error.
func (e *Executor) Persists(ctx context.Context, group []predicate.ID) (bool, error) {
	plan, err := PlanFor(e.Corpus, group)
	if err != nil {
		return false, err
	}
	pp, err := sim.Prepare(e.Prog, plan)
	if err != nil {
		return false, fmt.Errorf("inject: re-execution: %w", err)
	}
	ran := false
	for _, seed := range e.Seeds {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if e.isQuarantined(group, seed) {
			e.count(&e.Missed)
			continue
		}
		_, v, err := e.runOne(pp, group, seed, verdictOnly)
		if err != nil {
			e.addQuarantine(group, seed, err)
			e.count(&e.Missed)
			continue
		}
		e.count(&e.RunsUsed)
		if e.persists(v) {
			return true, nil
		}
		ran = true
	}
	if !ran {
		return false, fmt.Errorf("inject: every replay of group %v is quarantined", group)
	}
	return false, nil
}

// count increments one of the executor's mu-guarded run counters.
func (e *Executor) count(n *int) {
	e.mu.Lock()
	*n++
	e.mu.Unlock()
}

// replayResult is one (group, seed) replay outcome: an execution, or a
// missed run (quarantined now or previously).
type replayResult struct {
	exec   trace.Execution
	missed bool
}

var (
	_ core.Intervener      = (*Executor)(nil)
	_ core.BatchIntervener = (*Executor)(nil)
)

// Intervene implements core.Intervener. Cancelling ctx aborts the
// replay sweep within one task-drain and returns ctx's error.
func (e *Executor) Intervene(ctx context.Context, preds []predicate.ID) ([]core.Observation, error) {
	out, err := e.InterveneBatch(ctx, [][]predicate.ID{preds})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// InterveneBatch implements core.BatchIntervener: it executes several
// groups' replay bundles in one flattened concurrent sweep — the
// len(groups)·len(Seeds) re-executions share a single ordered worker
// pool, so narrow replay sets still fill every worker when a caller
// replays several independent groups at once (the intervention
// scheduler asks for one group at a time, through Intervene). Each
// group's observations are a pure function of its forced-predicate set:
// the result is identical to calling Intervene once per group, in
// order, for any pool width.
func (e *Executor) InterveneBatch(ctx context.Context, groups [][]predicate.ID) ([][]core.Observation, error) {
	if len(groups) == 0 {
		return nil, nil
	}
	// Compile each group's plan once (sim.Prepare splices the injection
	// stubs at the instruction level); the len(groups)·len(Seeds)
	// replays then run on pooled machine state with no per-call plan
	// application.
	preps := make([]*sim.Prepared, len(groups))
	for i, preds := range groups {
		plan, err := PlanFor(e.Corpus, preds)
		if err != nil {
			return nil, err
		}
		pp, err := sim.Prepare(e.Prog, plan)
		if err != nil {
			return nil, fmt.Errorf("inject: re-execution: %w", err)
		}
		preps[i] = pp
	}
	// Replay every (group, seed) pair across one flat pool; par.Map
	// returns them in (group, seed) order, so everything downstream sees
	// the per-group sequential view. Each replay is guarded: a panic or
	// blown wall budget quarantines the (plan, seed) pair and yields a
	// missed run, never a round failure.
	nSeeds := len(e.Seeds)
	results, err := par.Map(ctx, len(groups)*nSeeds, e.Workers, func(i int) (replayResult, error) {
		group, seed := groups[i/nSeeds], e.Seeds[i%nSeeds]
		if e.isQuarantined(group, seed) {
			return replayResult{missed: true}, nil
		}
		exec, _, rerr := e.runOne(preps[i/nSeeds], group, seed, nil)
		if rerr != nil {
			e.addQuarantine(group, seed, rerr)
			return replayResult{missed: true}, nil
		}
		return replayResult{exec: exec}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("inject: re-execution: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.monitors == nil {
		ms, err := predicate.CompileMonitors(e.Corpus, e.Baselines, e.Cfg)
		if err != nil {
			return nil, fmt.Errorf("inject: %w", err)
		}
		e.monitors = ms
	}
	out := make([][]core.Observation, len(groups))
	for gi, preds := range groups {
		obs, err := e.observe(results[gi*nSeeds:(gi+1)*nSeeds], preds)
		if err != nil {
			return nil, err
		}
		out[gi] = obs
	}
	return out, nil
}

// observe turns one group's replay bundle into observations; the caller
// holds e.mu and the monitors are compiled. Observed spans every corpus
// predicate but F and the intervened group: an intervened predicate is
// repaired by construction (¬C(r_C) in Definition 2), though injections
// can perturb timing enough to re-trigger it, so it is pinned to false.
// The observation maps escape into the scheduler memo; nothing else is
// allocated once the monitors' scratch has grown.
func (e *Executor) observe(bundle []replayResult, preds []predicate.ID) ([]core.Observation, error) {
	ids := e.monitors.IDs()
	out := make([]core.Observation, 0, len(bundle))
	for i := range bundle {
		if bundle[i].missed {
			e.Missed++
			continue
		}
		e.RunsUsed++
		exec := &bundle[i].exec
		hit, cnt := e.monitors.Eval(exec), 0
		for j := range hit {
			hit[j] = hit[j] && ids[j] != predicate.FailureID && !containsID(preds, ids[j])
			if hit[j] {
				cnt++
			}
		}
		// Counted first so the escaping map is allocated at its final size.
		obs := core.Observation{
			Failed:   e.persists(sim.Verdict{Failed: exec.Failed(), Sig: exec.FailureSig}),
			Observed: make(map[predicate.ID]bool, cnt),
		}
		for j, ok := range hit {
			if ok {
				obs.Observed[ids[j]] = true
			}
		}
		out = append(out, obs)
	}
	if len(out) == 0 {
		// Every replay of the group is quarantined: there is no evidence
		// to observe, and retrying cannot produce any. The round fails
		// (the robust layer reports it; discovery returns its partial
		// result) rather than fabricating an outcome.
		return nil, fmt.Errorf("inject: every replay of group %v is quarantined", preds)
	}
	return out, nil
}

// containsID reports whether the forced-predicate group contains id;
// groups are small (a handful of IDs), so a linear scan beats a
// per-round map.
func containsID(preds []predicate.ID, id predicate.ID) bool {
	for _, p := range preds {
		if p == id {
			return true
		}
	}
	return false
}
