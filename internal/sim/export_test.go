package sim

import (
	"math/rand"

	"aid/internal/trace"
)

// The equivalence generator and the interpreter oracle, for the
// differential tests in package sim_test: they stay test-only.
var (
	GenProgram     = genProgram
	GenPlan        = genPlan
	RunInterpreted = runInterpreted
)

// RunStdlibSource is Run on a machine whose scheduler draws from
// rand.NewSource: the fallback newSchedulerSource takes when fastSource
// fails verification.
func RunStdlibSource(p *Program, seed int64, opts RunOptions) (trace.Execution, error) {
	pp, err := Prepare(p, opts.Plan)
	if err != nil {
		return trace.Execution{}, err
	}
	exec, _ := pp.run(newMachine(rand.NewSource(0)), seed, Budget{MaxSteps: opts.MaxSteps}, opts.Final, nil)
	return exec, nil
}
