package effects

import (
	"reflect"
	"testing"

	"aid/internal/casestudy"
	"aid/internal/sim"
)

// The dynamic soundness oracle for the static analysis. The claim
// behind AID's Safe flag (§3.3: return-value and exception
// interventions are safe only on side-effect-free methods) is that
// skipping or absorbing a side-effect-free function cannot change the
// program's observable shared state. This test checks the derived
// classification against the runtime: every function the analysis
// calls side-effect-free is executed in isolation, with and without
// forced-return / absorbed-exception injections, and the final
// globals/arrays snapshot must be identical. A teeth check on
// known-impure functions confirms the oracle can actually fail.

var forcedValue = int64(7)

var soundnessPlans = []struct {
	name string
	plan func(fn string) sim.Plan
}{
	{"force-return-void", func(fn string) sim.Plan { return sim.Plan{fn: {ForceReturnVoid: true}} }},
	{"force-return", func(fn string) sim.Plan { return sim.Plan{fn: {ForceReturn: &forcedValue}} }},
	{"catch-exceptions", func(fn string) sim.Plan { return sim.Plan{fn: {CatchExceptions: true}} }},
}

var soundnessSeeds = []int64{1, 7, 42}

// isolated builds a single-threaded harness program whose entry is fn.
// Function bodies are shared read-only with the original; shared state
// is deep-copied so each run starts from the program's declared state.
func isolated(orig *sim.Program, fn string) *sim.Program {
	p := &sim.Program{
		Name:    orig.Name + "/" + fn,
		Entry:   fn,
		Funcs:   orig.Funcs,
		Globals: make(map[string]int64, len(orig.Globals)),
		Arrays:  make(map[string][]int64, len(orig.Arrays)),
	}
	for k, v := range orig.Globals {
		p.Globals[k] = v
	}
	for k, v := range orig.Arrays {
		p.Arrays[k] = append([]int64(nil), v...)
	}
	return p
}

// finalState runs p once and returns the shared-state snapshot. The
// step budget is small: an isolated WaitUntil can never be signalled,
// and a bounded hang still yields a valid snapshot.
func finalState(t *testing.T, p *sim.Program, seed int64, plan sim.Plan) sim.FinalState {
	t.Helper()
	pp, err := sim.Prepare(p, plan)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return pp.FinalState(seed, 5000)
}

func soundnessPrograms() []*sim.Program {
	progs := make([]*sim.Program, 0, 8)
	for _, s := range casestudy.All() {
		progs = append(progs, s.Program)
	}
	return append(progs, quickstartReplica(), PruningDemo(4, 6))
}

// TestPuritySoundness replays every analysis-side-effect-free function
// under forced-return and absorbed-exception injections and asserts
// the observable shared state is identical to the uninstrumented run.
func TestPuritySoundness(t *testing.T) {
	tested := 0
	for _, prog := range soundnessPrograms() {
		a := Analyze(prog)
		for _, fn := range prog.FuncNames() {
			if !a.SideEffectFree(fn) {
				continue
			}
			tested++
			iso := isolated(prog, fn)
			for _, seed := range soundnessSeeds {
				base := finalState(t, iso, seed, nil)
				for _, pl := range soundnessPlans {
					got := finalState(t, iso, seed, pl.plan(fn))
					if !reflect.DeepEqual(base, got) {
						t.Errorf("%s/%s seed %d %s: shared state diverged\nbaseline: %+v\ninjected: %+v",
							prog.Name, fn, seed, pl.name, base, got)
					}
				}
			}
		}
	}
	if tested == 0 {
		t.Fatal("no side-effect-free functions exercised; the oracle is vacuous")
	}
	t.Logf("verified %d side-effect-free functions against the runtime", tested)
}

// TestPuritySoundnessTeeth: the oracle must detect impurity. Forcing a
// return on a function the analysis calls impure changes the final
// state, so a wrong side-effect-free classification could not pass
// TestPuritySoundness.
func TestPuritySoundnessTeeth(t *testing.T) {
	cases := []struct {
		prog *sim.Program
		fn   string
	}{
		{quickstartReplica(), "Increment"},
		{PruningDemo(4, 6), "WriterA"},
	}
	for _, tc := range cases {
		a := Analyze(tc.prog)
		if a.SideEffectFree(tc.fn) {
			t.Fatalf("%s/%s: expected impure, analysis says side-effect-free", tc.prog.Name, tc.fn)
		}
		iso := isolated(tc.prog, tc.fn)
		base := finalState(t, iso, 1, nil)
		skipped := finalState(t, iso, 1, sim.Plan{tc.fn: {ForceReturnVoid: true}})
		if reflect.DeepEqual(base, skipped) {
			t.Errorf("%s/%s: skipping an impure function left shared state unchanged; the oracle has no teeth",
				tc.prog.Name, tc.fn)
		}
	}
}
