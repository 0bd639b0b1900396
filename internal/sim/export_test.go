package sim

// The equivalence generator and the interpreter oracle, for the
// differential tests in package sim_test: they stay test-only.
var (
	GenProgram     = genProgram
	GenPlan        = genPlan
	RunInterpreted = runInterpreted
)
