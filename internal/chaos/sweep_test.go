package chaos

import (
	"context"
	"reflect"
	"testing"

	"aid/internal/core"
	"aid/internal/synthetic"
)

// TestSweepConvergesUnderChaos is the robustness acceptance sweep: with
// 70% failure manifestation, 25% verdict flips, 5% dropped runs, and 2%
// each of injected panics and transient errors, discovery must still
// find the exact true cause on at least 95% of instances, within twice
// the noiseless round cost, and never abort. Seeds are fixed, so the
// numbers are reproducible run-to-run.
func TestSweepConvergesUnderChaos(t *testing.T) {
	instances := 100
	if testing.Short() {
		instances = 30
	}
	r, err := Sweep(context.Background(), SweepConfig{
		MaxT:      10,
		Instances: instances,
		BaseSeed:  1,
		Manifest:  0.7,
		Flip:      0.25,
		Drop:      0.05,
		ErrorRate: 0.02,
		PanicRate: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(r)
	if r.Aborted != 0 {
		t.Fatalf("%d instances aborted; containment must turn faults into extra rounds, not failures", r.Aborted)
	}
	if rate := r.CorrectRate(); rate < 0.95 {
		t.Fatalf("correct on %.1f%% of instances, want >= 95%%", 100*rate)
	}
	if ratio := r.RoundsRatio(); ratio > 2 {
		t.Fatalf("rounds ratio %.2f, want <= 2x the noiseless baseline", ratio)
	}
	if r.Recovered == 0 || r.Retries == 0 {
		t.Fatalf("faults not exercised: %+v", r)
	}
}

// TestSweepMildNoise covers a gentler setting (90% manifestation, 10%
// flips) where near-perfect accuracy is expected.
func TestSweepMildNoise(t *testing.T) {
	instances := 60
	if testing.Short() {
		instances = 20
	}
	r, err := Sweep(context.Background(), SweepConfig{
		MaxT:      10,
		Instances: instances,
		BaseSeed:  1,
		Manifest:  0.9,
		Flip:      0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(r)
	if r.Aborted != 0 || r.CorrectRate() < 0.95 || r.RoundsRatio() > 2 {
		t.Fatalf("mild-noise sweep out of bounds: %s", r)
	}
}

// TestZeroNoiseByteIdentical is the noise-rate-0 property test: the
// full robust stack — chaos wrapper at zero rates, adaptive oracle, and
// robust scheduler — must produce a Result deeply equal to the plain
// deterministic path on every instance. The robustness layer earns its
// place only if it is free when nothing is wrong.
func TestZeroNoiseByteIdentical(t *testing.T) {
	ctx := context.Background()
	for i := 0; i < 25; i++ {
		seed := int64(1 + i*7919)
		inst, err := synthetic.Generate(synthetic.Params{MaxThreads: 10, Seed: seed, LateSymptoms: -1})
		if err != nil {
			t.Fatal(err)
		}
		dag, err := inst.World.DAG()
		if err != nil {
			t.Fatal(err)
		}
		algoSeed := seed ^ 0x5deece66d

		want, err := core.Discover(ctx, dag, inst.World, core.AIDOptions(algoSeed))
		if err != nil {
			t.Fatal(err)
		}

		ch := Wrap(inst.World, Config{Seed: seed})
		// ManifestFloor 1 makes every round decide on its first trial:
		// the robust stack then issues exactly the deterministic path's
		// oracle calls.
		robust := core.NewRobustIntervener(ch, core.RobustConfig{ManifestFloor: 1, Seed: seed})
		sched := core.NewScheduler(robust, core.SchedulerConfig{})
		opts := core.AIDOptions(algoSeed)
		opts.Scheduler = sched
		got, err := core.Discover(ctx, dag, robust, opts)
		if err != nil {
			t.Fatalf("instance %d: robust stack errored at zero noise: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("instance %d: robust stack diverged at zero noise:\n got %+v\nwant %+v", i, got, want)
		}
		if st := ch.Stats(); st.Flips+st.Drops+st.Panics+st.Errors != 0 {
			t.Fatalf("instance %d: zero-rate config injected faults: %+v", i, st)
		}
	}
}

// TestSweepNeedsInstances checks the argument guard.
func TestSweepNeedsInstances(t *testing.T) {
	if _, err := Sweep(context.Background(), SweepConfig{MaxT: 10}); err == nil {
		t.Fatal("want error for zero instances")
	}
}
