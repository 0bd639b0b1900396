package sim

// The equivalence generator, for the replay-monitor differential tests
// in package sim_test: it stays test-only.
var (
	GenProgram = genProgram
	GenPlan    = genPlan
)
