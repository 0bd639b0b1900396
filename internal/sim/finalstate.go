package sim

// FinalState is a post-run snapshot of a program's shared state: the
// final values of every global variable and array the program declares
// or references. It is a test hook, read by the effect analysis's
// dynamic soundness oracle (internal/effects) and the engine
// equivalence tests: replaying a function with its return forced or
// exceptions absorbed and comparing FinalStates detects any
// shared-state mutation a purity claim missed.
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

// FinalState executes the prepared program once under the given seed
// and returns its shared state at the end of the run. The snapshot
// covers the compiled symbol tables' names — declared plus
// op-referenced shared state, excluding plan-added injection slots —
// matching the interpreter's exactly. maxSteps <= 0 means
// DefaultMaxSteps.
func (pp *Prepared) FinalState(seed int64, maxSteps int) (final FinalState) {
	pp.simulate(nil, seed, Budget{MaxSteps: maxSteps}, func(m *machine, _ Verdict) { m.snapshot(&final) })
	return final
}

// snapshot fills final with the run's globals and arrays by name.
func (m *machine) snapshot(final *FinalState) {
	c := m.pp.c
	final.Globals = make(map[string]int64, len(c.globalNames))
	for i, n := range c.globalNames {
		final.Globals[n] = m.globals[i]
	}
	final.Arrays = make(map[string][]int64, len(c.arrayNames))
	for i, n := range c.arrayNames {
		final.Arrays[n] = append([]int64(nil), m.arrays[i]...)
	}
}
