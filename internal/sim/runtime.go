package sim

import "aid/internal/trace"

// RunOptions configures one simulated execution.
type RunOptions struct {
	// MaxSteps bounds the total number of scheduler steps; exceeding it
	// marks the run as a hang failure. Zero means DefaultMaxSteps.
	MaxSteps int
	// Plan is the fault-injection plan (nil for an uninstrumented run).
	Plan Plan
	// Final, when non-nil, receives a snapshot of the program's shared
	// state (globals and arrays) at the end of the run; see FinalState.
	Final *FinalState
}

// DefaultMaxSteps is the step budget when RunOptions.MaxSteps is zero.
const DefaultMaxSteps = 200000

// Failure signatures produced by the runtime itself.
const (
	// SigDeadlock marks runs where every live thread is blocked.
	SigDeadlock = "deadlock"
	// SigHang marks runs that exhausted the step budget.
	SigHang = "hang"
)

// UncaughtSig builds the failure signature of an uncaught exception,
// the stack-trace-like metadata the paper's failure trackers use to
// group failures by root cause.
func UncaughtSig(kind string) string { return "unhandled:" + kind }

// Run executes the program once under the given seed and options and
// returns the recorded execution trace. The same (program, seed, plan)
// triple always yields the identical trace.
//
// Run compiles the program once, caches the compilation on the
// Program, and replays on pooled machine state; programs must not be
// mutated after their first run. For repeated replays under one plan,
// Prepare amortizes the plan splicing too.
func Run(p *Program, seed int64, opts RunOptions) (trace.Execution, error) {
	pp, err := Prepare(p, opts.Plan)
	if err != nil {
		return trace.Execution{}, err
	}
	return pp.run(nil, seed, Budget{MaxSteps: opts.MaxSteps}, opts.Final), nil
}

// MustRun is Run but panics on static program errors; for workloads
// validated at construction time.
func MustRun(p *Program, seed int64, opts RunOptions) trace.Execution {
	e, err := Run(p, seed, opts)
	if err != nil {
		panic(err)
	}
	return e
}
