package sim

// FinalState is a post-run snapshot of a program's shared state: the
// final values of every global variable and array the program declares
// or references. It is the observability hook behind the effect
// analysis's dynamic soundness oracle (internal/effects): replaying a
// function with its return forced or exceptions absorbed and comparing
// FinalStates detects any shared-state mutation a purity claim missed.
//
// The snapshot covers the program's own state only — shared variables
// an injection plan introduces (order-enforcement signal flags) are
// excluded.
type FinalState struct {
	// Globals maps every declared or referenced shared variable to its
	// final value (zero if never written).
	Globals map[string]int64
	// Arrays maps every declared or referenced shared array to a copy
	// of its final contents (nil if empty).
	Arrays map[string][]int64
}
