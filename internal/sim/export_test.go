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
	return pp.run(newMachine(rand.NewSource(0)), seed, Budget{MaxSteps: opts.MaxSteps}, opts.Final), nil
}

// PreparedSymbols returns the symbols that name pp's runs: the
// program's, with the plan's own mutexes past the program's.
func PreparedSymbols(pp *Prepared) trace.Symbols { return pp.syms }

// Machine is a machine a test owns, outside the pool: sync.Pool drops
// items at random under -race, and a dropped machine would re-grow its
// logs.
type Machine = machine

// NewMachine returns a machine on the fast scheduler source.
func NewMachine() *Machine { return newMachine(newSchedulerSource()) }

// RunIfOn is RunIf on machine m.
func (pp *Prepared) RunIfOn(m *Machine, seed int64, maxSteps int, keep func(Verdict) bool) (trace.LogRun, Verdict) {
	return pp.runIf(m, seed, Budget{MaxSteps: maxSteps}, keep)
}
