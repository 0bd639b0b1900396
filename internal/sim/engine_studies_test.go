package sim_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"aid/internal/casestudy"
	"aid/internal/sim"
	"aid/internal/trace"
)

// studyPlans are injection plans that exercise every intervention
// mechanism on real methods of study s, after the uninstrumented run.
func studyPlans(s *casestudy.Study) []sim.Plan {
	fns := s.Program.FuncNames()
	v := int64(1)
	return []sim.Plan{
		nil,
		{fns[0]: {GlobalLocks: []string{"aid.lock:eq"}},
			fns[len(fns)-1]: {GlobalLocks: []string{"aid.lock:eq"}}},
		{fns[len(fns)/2]: {DelayStart: 3, DelayReturn: 2}},
		{fns[0]: {CatchExceptions: true, CatchValue: 1, OverrideReturn: &v}},
		{fns[0]: {SignalAfter: []sim.Signal{{Var: "aid.order:eq", Val: 1}}},
			fns[len(fns)-1]: {WaitBefore: []sim.Signal{{Var: "aid.order:eq", Val: 1}}}},
	}
}

// runner is one way of running a program: the interpreter, the
// compiled engine, or the compiled engine on the stdlib source.
type runner func(p *sim.Program, seed int64, opts sim.RunOptions) (trace.Execution, error)

// assertStudiesMatch requires ref and got to give byte-identical JSON
// traces on the six studies, for studyPlans and seeds 1–12.
func assertStudiesMatch(t *testing.T, ref, got runner) {
	for _, s := range casestudy.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			for pi, plan := range studyPlans(s) {
				for seed := int64(1); seed <= 12; seed++ {
					opts := sim.RunOptions{Plan: plan, MaxSteps: s.MaxSteps}
					want, err := ref(s.Program, seed, opts)
					if err != nil {
						t.Fatalf("plan %d seed %d: reference: %v", pi, seed, err)
					}
					have, err := got(s.Program, seed, opts)
					if err != nil {
						t.Fatalf("plan %d seed %d: %v", pi, seed, err)
					}
					wj, _ := json.Marshal(want)
					gj, _ := json.Marshal(have)
					if !bytes.Equal(wj, gj) {
						t.Fatalf("plan %d seed %d: runs diverge\nreference: %s\ngot:       %s",
							pi, seed, wj, gj)
					}
				}
			}
		})
	}
}

// TestCompiledEngineEquivalence pins the compiled replay engine to the
// tree-walking interpreter on the six paper case studies: byte-identical
// JSON traces across seeds, uninstrumented and under injection plans
// that exercise every intervention mechanism on real study methods.
func TestCompiledEngineEquivalence(t *testing.T) {
	assertStudiesMatch(t, sim.RunInterpreted, sim.Run)
}

// TestStdlibSourceStudies runs the six studies on the fallback the
// scheduler takes when rngfast.Source fails verification, a machine seeded
// from rand.NewSource: TestCompiledEngineEquivalence's plans and seeds,
// and each study's 40-seed collection sweep, must give the traces the
// fast source gives, byte for byte.
func TestStdlibSourceStudies(t *testing.T) {
	assertStudiesMatch(t, sim.Run, sim.RunStdlibSource)
	for _, s := range casestudy.All() {
		for seed := int64(1); seed <= 40; seed++ {
			opts := sim.RunOptions{MaxSteps: s.MaxSteps}
			want, err := sim.Run(s.Program, seed, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.RunStdlibSource(s.Program, seed, opts)
			if err != nil {
				t.Fatal(err)
			}
			wj, _ := json.Marshal(want)
			gj, _ := json.Marshal(got)
			if !bytes.Equal(wj, gj) {
				t.Fatalf("%s seed %d: the stdlib source's trace differs from the fast source's", s.Name, seed)
			}
		}
	}
}

// TestCollectCorpusEngineEquivalence pins a full collection sweep: the
// corpus the pipeline actually consumes is identical whichever engine
// produced it. The Set is recycled between studies via the trace
// package's arena reset hook.
func TestCollectCorpusEngineEquivalence(t *testing.T) {
	var interp, compiled trace.Set
	for _, s := range casestudy.All() {
		interp.Reset()
		compiled.Reset()
		for seed := int64(1); seed <= 40; seed++ {
			opts := sim.RunOptions{MaxSteps: s.MaxSteps}
			wi, err := sim.RunInterpreted(s.Program, seed, opts)
			if err != nil {
				t.Fatal(err)
			}
			interp.Add(wi)
			ci, err := sim.Run(s.Program, seed, opts)
			if err != nil {
				t.Fatal(err)
			}
			compiled.Add(ci)
		}
		wj, _ := json.Marshal(&interp)
		gj, _ := json.Marshal(&compiled)
		if !bytes.Equal(wj, gj) {
			t.Fatalf("%s: corpus diverges between engines", s.Name)
		}
	}
}
