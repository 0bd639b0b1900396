package synthetic

import (
	"context"
	"math/rand"

	"aid/internal/core"
	"aid/internal/predicate"
	"aid/internal/rngfast"
)

// FlakyWorld wraps a World with runtime nondeterminism, modeling the
// situation the paper handles with repeated executions per intervention
// (§5.3, footnote 1): even under a fixed injection plan, a concurrent
// application's runs differ — spurious symptoms may fail to manifest,
// and the failure itself may need several runs to reproduce.
//
// Each Intervene call is one run:
//   - the hidden bug trigger recurs only with probability ManifestProb
//     (the buggy interleaving does not reproduce every run); a run
//     without the trigger observes no discriminative predicates at all,
//     like a lucky replay — which keeps Definition 2 sound, since
//     causal predicates are then absent together with the failure;
//   - when the trigger recurs, each spurious predicate that would fire
//     flickers off with probability SymptomNoise (its manifestation
//     depends on timing), while the causal chain fires
//     deterministically (the deterministic-effect assumption).
//
// Repetition is the adaptive trial oracle's job: wrapped in a
// core.RobustIntervener, each trial is one Intervene call, and the
// oracle decides how many a round's verdict needs.
type FlakyWorld struct {
	World *World
	// ManifestProb is the chance the bug trigger recurs per run.
	ManifestProb float64
	// SymptomNoise is the chance a spurious predicate flickers off.
	SymptomNoise float64

	rng *rand.Rand
}

// NewFlakyWorld wraps w with the given noise parameters.
func NewFlakyWorld(w *World, manifestProb, symptomNoise float64, seed int64) *FlakyWorld {
	return &FlakyWorld{
		World:        w,
		ManifestProb: manifestProb,
		SymptomNoise: symptomNoise,
		rng:          rngfast.New(seed),
	}
}

var _ core.Intervener = (*FlakyWorld)(nil)

// Intervene implements core.Intervener with one noisy run.
func (f *FlakyWorld) Intervene(ctx context.Context, preds []predicate.ID) ([]core.Observation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w := f.World
	w.ensureEval()
	if f.rng.Float64() >= f.ManifestProb {
		// The buggy interleaving did not recur: a clean run with no
		// discriminative predicates and no failure.
		return []core.Observation{{Observed: w.table.Set(nil)}}, nil
	}
	fired := w.fire(preds)
	failed := fired.Has(w.lastIdx)
	// Flicker decisions are drawn in sorted ID order, one draw per fired
	// spurious predicate, so the noise is a function of the seed alone,
	// whatever order the world lists its predicates in.
	for _, i := range w.table.IDOrder() {
		if fired.Has(int(i)) && !w.onPath.Has(int(i)) && f.rng.Float64() < f.SymptomNoise {
			fired.Unset(int(i))
		}
	}
	return []core.Observation{{Failed: failed, Observed: w.table.Set(fired)}}, nil
}
