// Guarded replay: fault containment for the compiled engine.
//
// A replay under an injection plan executes adversarial instruction
// splices; a bug in a plan translation (or in the engine itself) must
// cost one observation, not the discovery run. RunGuarded is Run with
// three containments: a panic anywhere in the replay is recovered into
// a *ReplayPanicError (and the possibly-corrupt machine is abandoned
// instead of returning to the pool), an optional wall-clock budget
// bounds runaway replays that the step budget alone cannot catch (each
// simulated step can cost unbounded real work), and the budget verdict
// is reported as an explicit *BudgetError rather than a forged trace.
//
// With a zero budget and a non-panicking replay, RunGuarded is
// byte-identical to Run for the same (program, seed, plan) triple — the
// wall-clock check short-circuits on the unset deadline, so the
// deterministic pipeline can route every replay through the guard
// without perturbing its traces.
package sim

import (
	"fmt"
	"time"

	"aid/internal/trace"
)

// SigBudget marks runs aborted by RunGuarded's wall-clock budget.
const SigBudget = "wall-budget"

// Budget bounds one guarded replay.
type Budget struct {
	// MaxSteps bounds scheduler steps (0 = DefaultMaxSteps); exceeding
	// it is a hang failure, exactly as in Run.
	MaxSteps int
	// WallClock bounds real elapsed time (0 = unbounded); exceeding it
	// aborts the replay with a *BudgetError.
	WallClock time.Duration
}

// ReplayPanicError reports a panic recovered from inside a guarded
// replay.
type ReplayPanicError struct {
	// Seed is the scheduler seed of the panicking replay.
	Seed int64
	// Value is the recovered panic value.
	Value any
}

func (e *ReplayPanicError) Error() string {
	return fmt.Sprintf("sim: replay with seed %d panicked: %v", e.Seed, e.Value)
}

// BudgetError reports a guarded replay exceeded its wall-clock budget.
type BudgetError struct {
	// Seed is the scheduler seed of the aborted replay.
	Seed int64
	// Budget is the wall-clock bound that was exceeded.
	Budget time.Duration
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: replay with seed %d exceeded wall-clock budget %v", e.Seed, e.Budget)
}

// RunGuarded executes the prepared program once under the given seed
// with fault containment (see the package-file comment). The returned
// error is nil, a *ReplayPanicError, or a *BudgetError; the execution
// is valid only when the error is nil.
func (pp *Prepared) RunGuarded(seed int64, b Budget) (exec trace.Execution, err error) {
	if _, err = pp.guarded(seed, b, func(m *machine, _ Verdict) { exec = m.execution(seed) }); err != nil {
		return trace.Execution{}, err
	}
	return exec, nil
}

// Observe is RunGuarded for callers that read the run's logs, not its
// trace: no trace is assembled, and observe (when non-nil) receives the
// verdict and a read-only view of the logs before the machine goes back
// to the pool. observe must not keep the view, and is not called for a
// run that blows its wall budget; a panic inside it is contained like
// one inside the run. With a nil observe, Observe is a guarded
// verdict-only run. The logs hold what the assembled trace would: the
// same spans in the same order with the same instance numbers, and the
// same accesses, in time order.
func (pp *Prepared) Observe(seed int64, b Budget, observe func(Verdict, *trace.RunLog)) (Verdict, error) {
	return pp.guarded(seed, b, func(m *machine, v Verdict) {
		if observe != nil {
			observe(v, m.runLog())
		}
	})
}

// guarded is simulate with the guard's containments: done is called
// only for a run within its wall budget, and a panic in the run or in
// done becomes a *ReplayPanicError (simulate leaves a panicked machine
// out of the pool: its invariants are unknown).
func (pp *Prepared) guarded(seed int64, b Budget, done func(*machine, Verdict)) (v Verdict, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			v, err = Verdict{}, &ReplayPanicError{Seed: seed, Value: rec}
		}
	}()
	v = pp.simulate(nil, seed, b, func(m *machine, v Verdict) {
		if v.Sig != SigBudget {
			done(m, v)
		}
	})
	if v.Sig == SigBudget {
		return Verdict{}, &BudgetError{Seed: seed, Budget: b.WallClock}
	}
	return v, nil
}
