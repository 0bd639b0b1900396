package sim_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"aid/internal/casestudy"
	"aid/internal/sim"
	"aid/internal/trace"
)

// TestCompiledEngineEquivalence pins the compiled replay engine to the
// tree-walking interpreter on the six paper case studies: byte-identical
// JSON traces across seeds, uninstrumented and under injection plans
// that exercise every intervention mechanism on real study methods.
func TestCompiledEngineEquivalence(t *testing.T) {
	for _, s := range casestudy.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			fns := s.Program.FuncNames()
			v := int64(1)
			plans := []sim.Plan{
				nil,
				{fns[0]: {GlobalLocks: []string{"aid.lock:eq"}},
					fns[len(fns)-1]: {GlobalLocks: []string{"aid.lock:eq"}}},
				{fns[len(fns)/2]: {DelayStart: 3, DelayReturn: 2}},
				{fns[0]: {CatchExceptions: true, CatchValue: 1, OverrideReturn: &v}},
				{fns[0]: {SignalAfter: []sim.Signal{{Var: "aid.order:eq", Val: 1}}},
					fns[len(fns)-1]: {WaitBefore: []sim.Signal{{Var: "aid.order:eq", Val: 1}}}},
			}
			for pi, plan := range plans {
				for seed := int64(1); seed <= 12; seed++ {
					opts := sim.RunOptions{Plan: plan, MaxSteps: s.MaxSteps}
					want, err := sim.RunInterpreted(s.Program, seed, opts)
					if err != nil {
						t.Fatalf("plan %d seed %d: interpreter: %v", pi, seed, err)
					}
					got, err := sim.Run(s.Program, seed, opts)
					if err != nil {
						t.Fatalf("plan %d seed %d: compiled: %v", pi, seed, err)
					}
					wj, _ := json.Marshal(want)
					gj, _ := json.Marshal(got)
					if !bytes.Equal(wj, gj) {
						t.Fatalf("plan %d seed %d: engines diverge\ninterpreter: %s\ncompiled:    %s",
							pi, seed, wj, gj)
					}
				}
			}
		})
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
