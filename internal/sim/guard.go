// Guarded replay: fault containment for the compiled engine.
//
// A replay under an injection plan executes adversarial instruction
// splices; a bug in a plan translation (or in the engine itself) must
// cost one observation, not the discovery run. Observe runs a replay
// with three containments: a panic anywhere in the replay is recovered
// into a *ReplayPanicError (and the possibly-corrupt machine is
// abandoned instead of returning to the pool), an optional wall-clock
// budget bounds runaway replays that the step budget alone cannot catch
// (each simulated step can cost unbounded real work), and the budget
// verdict is reported as an explicit *BudgetError rather than a forged
// verdict.
//
// With a zero budget and a non-panicking replay, Observe sees the logs
// and verdict RunIf keeps for the same (program, seed, plan) triple —
// the wall-clock check short-circuits on the unset deadline, so the
// deterministic pipeline can route every replay through the guard
// without perturbing its observations.
package sim

import (
	"fmt"
	"time"

	"aid/internal/trace"
)

// SigBudget marks runs aborted by Observe's wall-clock budget.
const SigBudget = "wall-budget"

// Budget bounds one guarded replay.
type Budget struct {
	// MaxSteps bounds scheduler steps (0 = DefaultMaxSteps); exceeding
	// it is a hang failure, exactly as in RunIf.
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

// Observe executes the prepared program once under the given seed with
// fault containment (see the package-file comment): observe (when
// non-nil) receives the verdict and a read-only view of the logs before
// the machine goes back to the pool. observe must not keep the view,
// and is not called for a run that blows its wall budget; a panic
// inside it is contained like one inside the run. With a nil observe,
// Observe is a guarded verdict-only run. The returned error is nil, a
// *ReplayPanicError, or a *BudgetError; the verdict is valid only when
// the error is nil. The logs hold what RunIf would keep: the same spans
// in the same order with the same instance numbers, and the same
// accesses, in time order.
func (pp *Prepared) Observe(seed int64, b Budget, observe func(Verdict, *trace.RunLog)) (v Verdict, err error) {
	// simulate leaves a panicked machine out of the pool: its
	// invariants are unknown.
	defer func() {
		if rec := recover(); rec != nil {
			v, err = Verdict{}, &ReplayPanicError{Seed: seed, Value: rec}
		}
	}()
	v = pp.simulate(nil, seed, b, func(m *machine, v Verdict) {
		if observe != nil && v.Sig != SigBudget {
			observe(v, m.runLog())
		}
	})
	if v.Sig == SigBudget {
		return Verdict{}, &BudgetError{Seed: seed, Budget: b.WallClock}
	}
	return v, nil
}
