package synthetic

import (
	"context"
	"math/rand"
	"sort"

	"aid/internal/core"
	"aid/internal/predicate"
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
		rng:          rand.New(rand.NewSource(seed)),
	}
}

var _ core.Intervener = (*FlakyWorld)(nil)

// Intervene implements core.Intervener with one noisy run.
func (f *FlakyWorld) Intervene(ctx context.Context, preds []predicate.ID) ([]core.Observation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	obs := core.Observation{Observed: make(map[predicate.ID]bool)}
	if f.rng.Float64() >= f.ManifestProb {
		// The buggy interleaving did not recur: a clean run with no
		// discriminative predicates and no failure.
		return []core.Observation{obs}, nil
	}
	forced := make(map[predicate.ID]bool, len(preds))
	for _, p := range preds {
		forced[p] = true
	}
	causal := make(map[predicate.ID]bool, len(f.World.Path))
	for _, c := range f.World.Path {
		causal[c] = true
	}
	fired, wouldFail := f.World.Fire(forced)
	// Draw flicker decisions in sorted ID order: iterating the map
	// directly would pair RNG draws with predicates in Go's random map
	// order, making the noise irreproducible despite the seed.
	ids := make([]predicate.ID, 0, len(fired))
	for id := range fired {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if causal[id] || f.rng.Float64() >= f.SymptomNoise {
			obs.Observed[id] = true
		}
	}
	obs.Failed = wouldFail
	return []core.Observation{obs}, nil
}
