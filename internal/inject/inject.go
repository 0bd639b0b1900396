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

	"aid/internal/bitvec"
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
	return planFor(c, preds, len(preds))
}

// planFor is PlanFor with room for hint methods in the plan map.
func planFor(c *predicate.Corpus, preds []predicate.ID, hint int) (sim.Plan, error) {
	plan := make(sim.Plan, hint)
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
	// Baselines, when set, must name exactly the corpus's successful
	// runs, by ID and in order; the executor fails otherwise. The
	// monitors compile their duration, return-value, order and
	// atomicity baselines once, from the corpus's own success logs
	// (predicate.Corpus.Logs), so every round judges replays against the
	// corpus's success baselines whether Baselines is set or not.
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
	// one intervention round; <= 0 means GOMAXPROCS. Replays are
	// consumed in seed order, so observations are identical for any
	// width.
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
	// the monitors' compilation. Replays and their observation run
	// outside the lock.
	mu sync.Mutex
	// monitors answer each replay's observation from the machine's logs
	// (compiled monitors are safe for concurrent use). They are compiled
	// on first use, so Prog and Corpus must not change afterwards.
	monitors *predicate.Monitors
	// table is the observation table over the monitors' IDs, built with
	// them: every replay's observed set is a bitset over it.
	table *core.PredTable

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

// runOne executes one guarded replay, handing its verdict and logs to
// observe (nil: a verdict-only run); no trace is assembled. Every inject
// replay routes through here: a panic anywhere inside — the hook, plan
// compilation quirks surfacing at run time, the engine itself or the
// observation — is recovered into an error instead of escaping through
// par.Map as a process-level round failure.
func (e *Executor) runOne(pp *sim.Prepared, group []predicate.ID, seed int64, observe func(sim.Verdict, *trace.RunLog)) (v sim.Verdict, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			v, err = sim.Verdict{}, &sim.ReplayPanicError{Seed: seed, Value: rec}
		}
	}()
	if h := replayHook; h != nil {
		h(group, seed)
	}
	return pp.Observe(seed, sim.Budget{MaxSteps: e.MaxSteps, WallClock: e.WallBudget}, observe)
}

// persists reports whether a replay verdict is a persistence of the
// executor's failure group (§5.1): a crash with another signature is a
// different bug.
func (e *Executor) persists(v sim.Verdict) bool {
	return v.Failed && (e.FailureSig == "" || v.Sig == e.FailureSig)
}

// prepare builds the group's plan and splices it into the program. The
// plan map's size hint is capped at the program's function count: a
// plan names no more methods than the program has.
func (e *Executor) prepare(group []predicate.ID) (*sim.Prepared, error) {
	plan, err := planFor(e.Corpus, group, min(len(group), len(e.Prog.Funcs)))
	if err != nil {
		return nil, err
	}
	pp, err := sim.Prepare(e.Prog, plan)
	if err != nil {
		return nil, fmt.Errorf("inject: re-execution: %w", err)
	}
	return pp, nil
}

// compiled returns the executor's monitors and their observation
// table, compiling them against the program's symbol tables and the
// corpus's success logs on first use.
func (e *Executor) compiled() (*predicate.Monitors, *core.PredTable, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.monitors == nil {
		syms, err := e.Prog.Symbols()
		if err != nil {
			return nil, nil, fmt.Errorf("inject: re-execution: %w", err)
		}
		logs := e.Corpus.Logs()
		if logs == nil {
			return nil, nil, fmt.Errorf("inject: the corpus carries no run logs to learn baselines from")
		}
		base := logs.Successes()
		if e.Baselines != nil {
			if err := sameRuns(e.Baselines, base); err != nil {
				return nil, nil, err
			}
		}
		ms, err := predicate.CompileMonitors(e.Corpus, syms, base, e.Cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("inject: %w", err)
		}
		e.monitors, e.table = ms, core.NewPredTable(ms.IDs())
	}
	return e.monitors, e.table, nil
}

// sameRuns checks that baselines name exactly succ's runs, by ID and in
// order.
func sameRuns(baselines []trace.Execution, succ *trace.LogSet) error {
	if len(baselines) != len(succ.Runs) {
		return fmt.Errorf("inject: Baselines hold %d executions, the corpus %d successful runs", len(baselines), len(succ.Runs))
	}
	for i := range baselines {
		if baselines[i].ID != succ.Runs[i].ID {
			return fmt.Errorf("inject: baseline %d is %q, the corpus's successful run %q", i, baselines[i].ID, succ.Runs[i].ID)
		}
	}
	return nil
}

// Persists reports whether the failure persists under the group's
// intervention: whether some replay seed still fails with the
// executor's failure signature. It answers Intervene's question "did
// some observation fail?" for oracles that need only that bit (TAGT):
// the group's plan is prepared once, the seeds replay in seed order
// without being observed, and the sweep stops at the first seed where
// the failure persists. Guard, quarantine and failure-signature rules
// are Intervene's, and so is the error when every replay is
// quarantined. Replays run sequentially at every pool width, so the
// verdict, the quarantine list and RunsUsed do not depend on Workers.
// Cancelling ctx stops before the next replay with ctx's error.
func (e *Executor) Persists(ctx context.Context, group []predicate.ID) (bool, error) {
	pp, err := e.prepare(group)
	if err != nil {
		return false, err
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
		v, err := e.runOne(pp, group, seed, nil)
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

var (
	_ core.Intervener      = (*Executor)(nil)
	_ core.BatchIntervener = (*Executor)(nil)
)

// Intervene implements core.Intervener: it replays the group's plan
// under every seed, concurrently up to Workers, and observes each
// replay from the machine's logs, assembling no trace. Replays are
// consumed in seed order, so the observations are identical for any
// pool width. At width 1 the replays run inline, so a round allocates
// only the plan and what escapes into the scheduler memo. Cancelling
// ctx aborts the replay sweep within one task-drain and returns ctx's
// error.
func (e *Executor) Intervene(ctx context.Context, preds []predicate.ID) ([]core.Observation, error) {
	pp, err := e.prepare(preds)
	if err != nil {
		return nil, err
	}
	ms, table, err := e.compiled()
	if err != nil {
		return nil, err
	}
	obs := make([]core.Observation, len(e.Seeds))
	if par.Workers(e.Workers) == 1 {
		for i, seed := range e.Seeds {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("inject: re-execution: %w", err)
			}
			obs[i] = e.replay(ms, table, pp, preds, seed)
		}
	} else if _, err := par.Map(ctx, len(obs), e.Workers, func(i int) (struct{}, error) {
		obs[i] = e.replay(ms, table, pp, preds, e.Seeds[i])
		return struct{}{}, nil
	}); err != nil {
		return nil, fmt.Errorf("inject: re-execution: %w", err)
	}
	return e.tally(obs, preds)
}

// InterveneBatch implements core.BatchIntervener: it answers each
// group in order as Intervene does, so each group's observations are a
// pure function of its forced-predicate set, identical for any pool
// width.
func (e *Executor) InterveneBatch(ctx context.Context, groups [][]predicate.ID) ([][]core.Observation, error) {
	if len(groups) == 0 {
		return nil, nil
	}
	out := make([][]core.Observation, len(groups))
	for gi, preds := range groups {
		obs, err := e.Intervene(ctx, preds)
		if err != nil {
			return nil, err
		}
		out[gi] = obs
	}
	return out, nil
}

// replay runs one guarded replay of the group's plan and observes it
// inside the replay, from the machine's logs, before the machine goes
// back to the pool. It is safe to run concurrently. The zero
// Observation (core.Observation.Missed) is a missed run: the (plan,
// seed) pair was quarantined before, or is now, because its replay
// panicked or blew the wall budget.
func (e *Executor) replay(ms *predicate.Monitors, table *core.PredTable, pp *sim.Prepared, preds []predicate.ID, seed int64) (obs core.Observation) {
	if e.isQuarantined(preds, seed) {
		return obs
	}
	_, err := e.runOne(pp, preds, seed, func(v sim.Verdict, l *trace.RunLog) {
		ms.EvalLog(l, func(hit []bool) { obs = e.observation(table, ms.IDs(), v, hit, preds) })
	})
	if err != nil {
		e.addQuarantine(preds, seed, err)
		return core.Observation{}
	}
	return obs
}

// observation turns one replay's verdict and occurrence bits into its
// observation, copying the monitors' hits (indexed like ids and the
// table) into a bitset. Observed spans every corpus predicate but F and
// the intervened group: an intervened predicate is repaired by
// construction (¬C(r_C) in Definition 2), though injections can perturb
// timing enough to re-trigger it, so it is pinned to false. The bitset
// escapes into the scheduler memo.
func (e *Executor) observation(table *core.PredTable, ids []predicate.ID, v sim.Verdict, hit []bool, preds []predicate.ID) core.Observation {
	bits := bitvec.New(len(hit))
	for j, ok := range hit {
		if ok && ids[j] != predicate.FailureID && !containsID(preds, ids[j]) {
			bits.SetInCap(j)
		}
	}
	return core.Observation{Failed: e.persists(v), Observed: table.Set(bits)}
}

// tally counts one group's replays, in seed order, and drops its missed
// runs from obs in place.
func (e *Executor) tally(obs []core.Observation, preds []predicate.ID) ([]core.Observation, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := obs[:0]
	for _, o := range obs {
		if o.Missed() {
			e.Missed++
			continue
		}
		e.RunsUsed++
		out = append(out, o)
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
