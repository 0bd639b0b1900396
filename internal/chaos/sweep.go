package chaos

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"aid/internal/core"
	"aid/internal/par"
	"aid/internal/synthetic"
)

// SweepConfig shapes one robustness sweep: synthetic Fig. 8-style
// instances re-discovered under the chaos stack, compared against their
// own noiseless baselines.
type SweepConfig struct {
	// MaxT and Instances shape the synthetic setting (see
	// synthetic.RunSetting).
	MaxT, Instances int
	// BaseSeed derives every per-instance seed.
	BaseSeed int64
	// Manifest is the per-run probability the bug trigger recurs
	// (FlakyWorld.ManifestProb); 1 = always.
	Manifest float64
	// Flip, Drop, ErrorRate, and PanicRate are the chaos fault rates.
	Flip, Drop, ErrorRate, PanicRate float64
	// Workers is the instance-pool width (<= 0 = GOMAXPROCS); instances
	// are seeded independently, so the result is width-invariant.
	Workers int
	// Oracle overrides the derived trial-oracle config when non-zero.
	Oracle core.RobustConfig
}

// oracleConfig derives the trial-oracle parameters from the injected
// fault rates: the oracle is told the true per-run evidence quality it
// faces, which is the fair calibration (a deployment would estimate
// these from flake dashboards).
func (c SweepConfig) oracleConfig(seed int64) core.RobustConfig {
	if c.Oracle != (core.RobustConfig{}) {
		cfg := c.Oracle
		cfg.Seed = seed
		return cfg
	}
	manifest := c.Manifest
	if manifest <= 0 || manifest > 1 {
		manifest = 1
	}
	keep := 1 - c.Drop
	// Observed per-run failure rate when the failure truly persists
	// (manifested, survived the drop, not flipped — plus a clean run
	// flipped into a forged failure) vs when it truly stopped (forged
	// failures only).
	floor := keep * (manifest*(1-c.Flip) + (1-manifest)*c.Flip)
	ceil := keep * c.Flip
	return core.RobustConfig{
		MaxTrials:     60,
		Confidence:    0.995,
		ManifestFloor: floor,
		FlipCeiling:   ceil,
		RetryLimit:    6,
		BackoffBase:   50 * time.Microsecond,
		BackoffMax:    400 * time.Microsecond,
		Seed:          seed,
	}
}

// SweepResult aggregates one sweep.
type SweepResult struct {
	// Instances is the number of instances attempted.
	Instances int
	// Correct counts instances whose discovered path matched the ground
	// truth exactly; Misidentified counts wrong or missing causes.
	Correct, Misidentified int
	// Aborted counts instances where discovery returned an error — the
	// failure mode the robustness layer exists to eliminate.
	Aborted int
	// MeanRounds and BaselineMeanRounds are the mean intervention
	// rounds under chaos and on the same instances noiseless.
	MeanRounds, BaselineMeanRounds float64
	// Trials, Retries, and Recovered aggregate the trial oracle's
	// accounting; Contradictions and Repaired the schedulers'.
	Trials, Retries, Recovered     int
	Contradictions, Repaired       int
	Flips, Drops, Panics, Injected int
}

// CorrectRate is the fraction of instances with the exact true cause.
func (r *SweepResult) CorrectRate() float64 {
	if r.Instances == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Instances)
}

// RoundsRatio is MeanRounds / BaselineMeanRounds.
func (r *SweepResult) RoundsRatio() float64 {
	if r.BaselineMeanRounds == 0 {
		return 0
	}
	return r.MeanRounds / r.BaselineMeanRounds
}

// String renders the one-line sweep record used by the chaos CI smoke
// and EXPERIMENTS.md.
func (r *SweepResult) String() string {
	return fmt.Sprintf("%d instances: %.1f%% correct, rounds %.2f vs %.2f baseline (ratio %.2f), %d trials, %d retries, %d recovered panics, %d contradictions (%d repaired), %d aborted",
		r.Instances, 100*r.CorrectRate(), r.MeanRounds, r.BaselineMeanRounds, r.RoundsRatio(),
		r.Trials, r.Retries, r.Recovered, r.Contradictions, r.Repaired, r.Aborted)
}

// instanceOutcome is one instance's measurement.
type instanceOutcome struct {
	correct        bool
	aborted        bool
	rounds         int
	baselineRounds int
	trials         int
	retries        int
	recovered      int
	contradictions int
	repaired       int
	flips, drops   int
	panics         int
	injected       int
}

// Sweep generates Instances synthetic applications, runs AID on each
// through the full chaos stack, and aggregates convergence and cost
// against the per-instance noiseless baselines.
func Sweep(ctx context.Context, cfg SweepConfig) (*SweepResult, error) {
	if cfg.Instances <= 0 {
		return nil, fmt.Errorf("chaos: sweep needs at least one instance")
	}
	outcomes, err := par.Map(ctx, cfg.Instances, cfg.Workers, func(i int) (instanceOutcome, error) {
		seed := cfg.BaseSeed + int64(i)*7919
		inst, err := synthetic.Generate(synthetic.Params{MaxThreads: cfg.MaxT, Seed: seed, LateSymptoms: -1})
		if err != nil {
			return instanceOutcome{}, err
		}
		dag, err := inst.World.DAG()
		if err != nil {
			return instanceOutcome{}, err
		}
		algoSeed := seed ^ 0x5deece66d

		// Noiseless baseline: plain deterministic AID on the same
		// instance, same algorithm seed.
		baseOpts := core.AIDOptions(algoSeed)
		baseRes, err := core.Discover(ctx, dag, inst.World, baseOpts)
		if err != nil {
			return instanceOutcome{}, err
		}

		// Chaos stack: world → flaky manifestation → injected faults →
		// adaptive trial oracle → robust scheduler.
		flaky := synthetic.NewFlakyWorld(inst.World, cfg.Manifest, 0, seed^0x51ab5)
		var under core.Intervener = flaky
		if cfg.Manifest <= 0 || cfg.Manifest >= 1 {
			under = inst.World
		}
		ch := Wrap(under, Config{
			Seed:      seed ^ 0xc40515,
			FlipRate:  cfg.Flip,
			DropRate:  cfg.Drop,
			ErrorRate: cfg.ErrorRate,
			PanicRate: cfg.PanicRate,
		})
		robust := core.NewRobustIntervener(ch, cfg.oracleConfig(seed^0x9e3779b9))
		sched := core.NewScheduler(robust, core.SchedulerConfig{})
		opts := core.AIDOptions(algoSeed)
		opts.Scheduler = sched

		out := instanceOutcome{baselineRounds: baseRes.Interventions()}
		res, err := core.Discover(ctx, dag, robust, opts)
		if res != nil {
			out.rounds = res.Interventions()
		}
		if err != nil {
			if ctx.Err() != nil {
				return instanceOutcome{}, err
			}
			out.aborted = true
		} else {
			out.correct = reflect.DeepEqual(res.Path, inst.World.WantPath())
		}
		rs := robust.Stats()
		ss := sched.Stats()
		cs := ch.Stats()
		out.trials, out.retries, out.recovered = rs.Trials, rs.Retries, rs.Recovered
		out.contradictions, out.repaired = ss.Contradictions, ss.Repaired
		out.flips, out.drops, out.panics = cs.Flips, cs.Drops, cs.Panics
		out.injected = cs.Flips + cs.Drops + cs.Panics + cs.Errors
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Instances: cfg.Instances}
	var roundSum, baseSum int
	for _, o := range outcomes {
		roundSum += o.rounds
		baseSum += o.baselineRounds
		switch {
		case o.aborted:
			res.Aborted++
		case o.correct:
			res.Correct++
		default:
			res.Misidentified++
		}
		res.Trials += o.trials
		res.Retries += o.retries
		res.Recovered += o.recovered
		res.Contradictions += o.contradictions
		res.Repaired += o.repaired
		res.Flips += o.flips
		res.Drops += o.drops
		res.Panics += o.panics
		res.Injected += o.injected
	}
	res.MeanRounds = float64(roundSum) / float64(cfg.Instances)
	res.BaselineMeanRounds = float64(baseSum) / float64(cfg.Instances)
	return res, nil
}
