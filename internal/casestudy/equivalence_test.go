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

// assembleAllSweep is Collect's reference: a sequential seed sweep that
// keeps every run, assembles its trace and applies the quota rules to
// each in seed order.
func assembleAllSweep(t *testing.T, s *Study, rc CollectConfig) (*trace.Set, []int64) {
	t.Helper()
	pp, err := sim.Prepare(s.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	syms, err := s.Program.Symbols()
	if err != nil {
		t.Fatal(err)
	}
	set := &trace.Set{}
	var failSeeds []int64
	succ, fail := 0, 0
	for seed := int64(1); seed <= int64(rc.SeedCap) && (succ < rc.Successes || fail < rc.Failures); seed++ {
		run, _ := pp.RunIf(seed, s.MaxSteps, nil)
		exec := run.Execution(&syms)
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
// whose outcome class is full when their chunk starts are not kept, and
// kept runs are logs, yet the collected corpus's materialized set must
// be byte-identical (as JSON) to a sweep that assembles every run, with
// the same failing seeds, at any pool width.
func TestCollectAssemblyEquivalence(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			for _, size := range [][2]int{{50, 50}, {10, 40}} {
				rc := CollectConfig{Successes: size[0], Failures: size[1], SeedCap: 4000}
				wantSet, wantSeeds := assembleAllSweep(t, s, rc)
				want, err := json.Marshal(wantSet)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					rc.Workers = workers
					logs, failSeeds, err := Collect(context.Background(), s, rc)
					if err != nil {
						t.Fatal(err)
					}
					got, err := json.Marshal(logs.Set())
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
