package casestudy

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"aid/internal/sim"
	"aid/internal/trace"
)

// TestCompiledEngineEquivalence pins the compiled replay engine to the
// tree-walking interpreter on the six paper case studies: byte-identical
// JSON traces across seeds, uninstrumented and under injection plans
// that exercise every intervention mechanism on real study methods.
func TestCompiledEngineEquivalence(t *testing.T) {
	for _, s := range All() {
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
					want, err := sim.Run(s.Program, seed, sim.RunOptions{
						Plan: plan, MaxSteps: s.MaxSteps, Engine: sim.EngineInterpreter,
					})
					if err != nil {
						t.Fatalf("plan %d seed %d: interpreter: %v", pi, seed, err)
					}
					got, err := sim.Run(s.Program, seed, sim.RunOptions{
						Plan: plan, MaxSteps: s.MaxSteps, Engine: sim.EngineCompiled,
					})
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
	for _, s := range All() {
		interp.Reset()
		compiled.Reset()
		for seed := int64(1); seed <= 40; seed++ {
			wi, err := sim.Run(s.Program, seed, sim.RunOptions{
				MaxSteps: s.MaxSteps, Engine: sim.EngineInterpreter,
			})
			if err != nil {
				t.Fatal(err)
			}
			interp.Add(wi)
			ci, err := sim.Run(s.Program, seed, sim.RunOptions{MaxSteps: s.MaxSteps})
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

// assembleAllSweep is Collect's reference: a sequential seed sweep that
// assembles every run's trace and applies the quota rules to each in
// seed order.
func assembleAllSweep(t *testing.T, s *Study, rc RunConfig) (*trace.Set, []int64) {
	t.Helper()
	set := &trace.Set{}
	var failSeeds []int64
	succ, fail := 0, 0
	for seed := int64(1); seed <= int64(rc.SeedCap) && (succ < rc.Successes || fail < rc.Failures); seed++ {
		exec := sim.MustRun(s.Program, seed, sim.RunOptions{MaxSteps: s.MaxSteps})
		switch {
		case exec.Failed() && exec.FailureSig == s.FailureSig && fail < rc.Failures:
			fail++
			failSeeds = append(failSeeds, seed)
		case !exec.Failed() && succ < rc.Successes:
			succ++
		default:
			continue
		}
		set.Executions = append(set.Executions, exec)
	}
	if succ < rc.Successes || fail < rc.Failures {
		t.Fatalf("reference sweep collected %d/%d within %d seeds", succ, fail, rc.SeedCap)
	}
	return set, failSeeds
}

// TestCollectAssemblyEquivalence pins quota-aware collection: runs
// whose outcome class is full when their chunk starts skip trace
// assembly, yet the collected set must be byte-identical (as JSON) to
// a sweep that assembles every run, with the same failing seeds, at
// any pool width.
func TestCollectAssemblyEquivalence(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			for _, size := range [][2]int{{50, 50}, {10, 40}} {
				rc := DefaultRunConfig()
				rc.Successes, rc.Failures = size[0], size[1]
				wantSet, wantSeeds := assembleAllSweep(t, s, rc)
				want, err := json.Marshal(wantSet)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					rc.Workers = workers
					set, failSeeds, err := Collect(context.Background(), s, rc)
					if err != nil {
						t.Fatal(err)
					}
					got, err := json.Marshal(set)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) || !reflect.DeepEqual(failSeeds, wantSeeds) {
						t.Fatalf("%d+%d, workers=%d: collected corpus differs from the assemble-every-run sweep",
							size[0], size[1], workers)
					}
				}
			}
		})
	}
}
