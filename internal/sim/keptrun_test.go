package sim_test

import (
	"reflect"
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

// TestKeptRunCopiesMatchAcrossMachines: a kept run copied from a fresh
// machine and from one reused across programs and seeds is the same
// value under reflect.DeepEqual, empty logs included: a reused machine's
// empty lockset log has capacity left by an earlier run that held a
// mutex, a fresh one's has none.
func TestKeptRunCopiesMatchAcrossMachines(t *testing.T) {
	locking := sim.NewProgram("locking", "Main")
	locking.Globals["g"] = 0
	locking.AddFunc("Main", sim.Lock{Mu: "m"}, sim.WriteGlobal{Var: "g", Src: sim.Lit(1)}, sim.Unlock{Mu: "m"})
	programs := []*sim.Program{locking}
	for _, s := range casestudy.All() {
		programs = append(programs, s.Program)
	}
	keep := func(sim.Verdict) bool { return true }
	pooled := sim.NewMachine()
	afterLocks := 0 // lockless runs right after a run that held a mutex
	prevLocked := false
	for seed := int64(1); seed <= 10; seed++ {
		for _, p := range programs {
			pp, err := sim.Prepare(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			fresh, _ := pp.RunIfOn(sim.NewMachine(), seed, 2000, keep)
			reused, _ := pp.RunIfOn(pooled, seed, 2000, keep)
			if !reflect.DeepEqual(fresh, reused) {
				t.Fatalf("%s seed %d: kept copies from a fresh and a reused machine differ", p.Name, seed)
			}
			locked := len(fresh.Log.LockIDs) > 0
			if prevLocked && !locked {
				afterLocks++
			}
			prevLocked = locked
		}
	}
	if afterLocks == 0 {
		t.Fatal("no lockless run followed one that held a mutex; the comparison shows little")
	}
}
