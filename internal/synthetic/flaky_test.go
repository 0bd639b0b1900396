package synthetic

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"aid/internal/core"
	"aid/internal/predicate"
)

// runs calls the single-run Intervene n times on the same group.
func runs(t *testing.T, f *FlakyWorld, preds []predicate.ID, n int) []core.Observation {
	t.Helper()
	var out []core.Observation
	for i := 0; i < n; i++ {
		obs, err := f.Intervene(context.Background(), preds)
		if err != nil {
			t.Fatal(err)
		}
		if len(obs) != 1 {
			t.Fatalf("Intervene returned %d observations, want one run", len(obs))
		}
		out = append(out, obs[0])
	}
	return out
}

func TestFlakyWorldObservationSemantics(t *testing.T) {
	inst := mustGen(t, 4, 3)
	f := NewFlakyWorld(inst.World, 0.5, 0.3, 7)
	manifested, clean := 0, 0
	for _, o := range runs(t, f, nil, 50) {
		if o.Failed {
			manifested++
			// Causal predicates never flicker when the trigger recurs.
			for _, c := range inst.World.Path {
				if !has(o.Observed, c) {
					t.Fatalf("causal predicate %s flickered in a failing run", c)
				}
			}
		} else if o.Observed.Len() == 0 {
			clean++
		} else {
			t.Fatal("non-manifesting run observed predicates without failing")
		}
	}
	if manifested == 0 || clean == 0 {
		t.Fatalf("flakiness not exercised: %d manifested, %d clean", manifested, clean)
	}
}

func TestFlakyWorldSymptomFlicker(t *testing.T) {
	inst := mustGen(t, 6, 11)
	if inst.N-inst.D < 2 {
		t.Skip("instance has too few spurious predicates")
	}
	f := NewFlakyWorld(inst.World, 1.0, 0.4, 9)
	flickered := false
	for _, o := range runs(t, f, nil, 200) {
		for _, p := range inst.World.Preds {
			if !has(o.Observed, p) {
				flickered = true
			}
		}
	}
	if !flickered {
		t.Fatal("no spurious predicate ever flickered at 40% noise")
	}
}

// AID must still recover the exact causal path under realistic
// flakiness through the adaptive trial oracle: a single failing run is
// a conclusive counter-example, lucky runs silence causal predicates
// together with the failure, and a "stopped" verdict waits for enough
// clean trials. The RobustIntervener puts Discover's scheduler in
// robust mode.
func TestAIDConvergesOnFlakyWorlds(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		inst := mustGen(t, 6, seed)
		dag, err := inst.World.DAG()
		if err != nil {
			t.Fatal(err)
		}
		flaky := NewFlakyWorld(inst.World, 0.7, 0.25, seed^0x9e37)
		robust := core.NewRobustIntervener(flaky, core.RobustConfig{ManifestFloor: 0.7, Seed: seed})
		opts := core.AIDOptions(seed)
		opts.Scheduler = core.NewScheduler(robust, core.SchedulerConfig{})
		if !opts.Scheduler.Robust() {
			t.Fatal("a RobustIntervener must put the scheduler in robust mode")
		}
		res, err := core.Discover(context.Background(), dag, robust, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Path, inst.World.WantPath()) {
			t.Fatalf("seed %d: flaky path = %v, want %v", seed, res.Path, inst.World.WantPath())
		}
		if robust.Stats().Trials <= res.Interventions() {
			t.Fatalf("seed %d: %d trials for %d rounds; the oracle never repeated a run",
				seed, robust.Stats().Trials, res.Interventions())
		}
	}
}

// Under extreme noise (rare manifestation, heavy flicker) some
// instances get misidentified even through the adaptive trial oracle;
// a noisy sweep must count them instead of failing, and deterministic
// runs must never report any.
func TestMisidentificationAccounting(t *testing.T) {
	noisy, err := RunSettingOpts(context.Background(), 6, 30, 77, SweepOptions{Noise: Noise{ManifestProb: 0.5, SymptomNoise: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	totalWrong := 0
	for _, ap := range Approaches {
		totalWrong += noisy.Misidentified[ap]
	}
	if totalWrong == 0 {
		t.Fatal("extreme noise produced no misidentifications in 120 runs — accounting suspect")
	}
	det, err := RunSetting(context.Background(), 6, 10, 77)
	if err != nil {
		t.Fatal(err)
	}
	for _, ap := range Approaches {
		if det.Misidentified[ap] != 0 {
			t.Fatalf("deterministic sweep misidentified %d for %s", det.Misidentified[ap], ap)
		}
	}
}

// With a perfectly reliable trigger and zero noise, the flaky wrapper
// must agree with the deterministic world round for round.
func TestFlakyWorldDegeneratesToDeterministic(t *testing.T) {
	inst := mustGen(t, 5, 2)
	f := NewFlakyWorld(inst.World, 1.0, 0, 1)
	probe := []predicate.ID{inst.World.Path[0]}
	flakyObs := runs(t, f, probe, 1)
	detObs, err := inst.World.Intervene(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if flakyObs[0].Failed != detObs[0].Failed {
		t.Fatal("degenerate flaky world disagrees on failure")
	}
	if !slices.Equal(slices.Collect(flakyObs[0].Observed.All()), slices.Collect(detObs[0].Observed.All())) {
		t.Fatal("degenerate flaky world disagrees on observations")
	}
}
