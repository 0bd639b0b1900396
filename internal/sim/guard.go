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
func (pp *Prepared) RunGuarded(seed int64, b Budget) (trace.Execution, error) {
	exec, _, err := pp.RunGuardedIf(seed, b, nil)
	return exec, err
}

// RunGuardedIf is RunGuarded that assembles the trace only when keep
// accepts the run's verdict (nil keep accepts every run), like RunIf.
// The verdict is valid only when the error is nil; a run that blows
// its wall budget is never assembled.
func (pp *Prepared) RunGuardedIf(seed int64, b Budget, keep func(Verdict) bool) (exec trace.Execution, v Verdict, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			// run leaves a panicked machine out of the pool: its
			// invariants are unknown.
			exec, v, err = trace.Execution{}, Verdict{}, &ReplayPanicError{Seed: seed, Value: rec}
		}
	}()
	exec, v = pp.run(nil, seed, b, nil, func(v Verdict) bool {
		return v.Sig != SigBudget && (keep == nil || keep(v))
	})
	if v.Sig == SigBudget {
		return trace.Execution{}, Verdict{}, &BudgetError{Seed: seed, Budget: b.WallClock}
	}
	return exec, v, nil
}
