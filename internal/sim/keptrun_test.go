package sim_test

import (
	"testing"

	"aid/internal/casestudy"
	"aid/internal/sim"
)

// TestKeptRunAllocs pins what collection pays for a kept run: its ID
// and the owned copy of each non-empty log, whatever the run's length,
// and nothing for a declined run. It covers each study's first 100
// collection seeds, each run after warm-ups that grow the machine's
// logs and settle the seed-state cache.
func TestKeptRunAllocs(t *testing.T) {
	keep := func(sim.Verdict) bool { return true }
	never := func(sim.Verdict) bool { return false }
	lengths := map[int]bool{}
	for _, s := range casestudy.All() {
		pp, err := sim.Prepare(s.Program, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := sim.NewMachine()
		for seed := int64(1); seed <= 100; seed++ {
			for range 3 {
				pp.RunIfOn(m, seed, s.MaxSteps, never)
			}
			run, _ := pp.RunIfOn(m, seed, s.MaxSteps, keep)
			lengths[len(run.Log.Spans)+len(run.Log.Accesses)] = true
			want := 1.0 // the ID
			for _, n := range []int{len(run.Log.Spans), len(run.Log.Accesses), len(run.Log.LockIDs), len(run.Log.LockEnd)} {
				if n > 0 {
					want++
				}
			}
			if got := testing.AllocsPerRun(20, func() { pp.RunIfOn(m, seed, s.MaxSteps, keep) }); got != want {
				t.Fatalf("%s seed %d: a kept run allocates %v times, want %v (%d spans, %d accesses)",
					s.Name, seed, got, want, len(run.Log.Spans), len(run.Log.Accesses))
			}
			if got := testing.AllocsPerRun(20, func() { pp.RunIfOn(m, seed, s.MaxSteps, never) }); got != 0 {
				t.Fatalf("%s seed %d: a declined run allocates %v times, want 0", s.Name, seed, got)
			}
		}
	}
	if len(lengths) < 10 {
		t.Fatalf("kept runs' logs take only %d lengths; the pin shows little", len(lengths))
	}
}
