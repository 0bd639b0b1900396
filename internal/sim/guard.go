// Guarded replay: fault containment for the compiled engine.
//
// A replay under an injection plan executes adversarial instruction
// splices; a bug in a plan translation (or in the engine itself) must
// cost one observation, not the discovery run. Observe recovers a panic
// anywhere in the replay into a *ReplayPanicError, and the
// possibly-corrupt machine is abandoned instead of returning to the
// pool. A non-panicking replay sees the logs and verdict RunIf keeps
// for the same (program, seed, plan) triple, so the deterministic
// pipeline routes every replay through the guard without perturbing
// its observations.
package sim

import (
	"fmt"

	"aid/internal/trace"
)

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

// Observe executes the prepared program once under the given seed with
// fault containment (see the package-file comment): observe (when
// non-nil) receives the verdict and a read-only view of the logs before
// the machine goes back to the pool. observe must not keep the view; a
// panic inside it is contained like one inside the run. With a nil
// observe, Observe is a guarded verdict-only run. The returned error is
// nil or a *ReplayPanicError; the verdict is valid only when the error
// is nil. The logs hold what RunIf would keep: the same spans in the
// same order with the same instance numbers, and the same accesses, in
// time order. maxSteps <= 0 means DefaultMaxSteps; exceeding it is a
// hang failure, exactly as in RunIf.
func (pp *Prepared) Observe(seed int64, maxSteps int, observe func(Verdict, *trace.RunLog)) (v Verdict, err error) {
	// simulate leaves a panicked machine out of the pool: its
	// invariants are unknown.
	defer func() {
		if rec := recover(); rec != nil {
			v, err = Verdict{}, &ReplayPanicError{Seed: seed, Value: rec}
		}
	}()
	var done func(*machine, Verdict)
	if observe != nil {
		done = func(m *machine, v Verdict) { observe(v, m.runLog()) }
	}
	return pp.simulate(nil, seed, maxSteps, done), nil
}
