package aid

import (
	"context"

	"aid/internal/synthetic"
)

// Re-exports for the paper's synthetic benchmark (§7.2 / Fig. 8):
// generated applications with known root causes, measured across the
// four approaches. Exposed on the facade so benchmark drivers and
// examples need no internal imports.

// SyntheticParams configures synthetic application generation.
type SyntheticParams = synthetic.Params

// SyntheticInstance is a generated application with its ground truth.
type SyntheticInstance = synthetic.Instance

// SyntheticWorld is the ground-truth causal model of an instance.
type SyntheticWorld = synthetic.World

// SyntheticSetting aggregates one MAXt column of Fig. 8.
type SyntheticSetting = synthetic.Setting

// SyntheticCell aggregates one (approach, MAXt) cell of Fig. 8.
type SyntheticCell = synthetic.Cell

// Approach names one of the four strategies compared in Fig. 8.
type Approach = synthetic.Approach

// The four approaches of Fig. 8.
const (
	ApproachTAGT  = synthetic.TAGT
	ApproachAIDPB = synthetic.AIDPB
	ApproachAIDP  = synthetic.AIDP
	ApproachAID   = synthetic.AID
)

// Approaches lists them in the paper's legend order.
func Approaches() []Approach {
	return append([]Approach(nil), synthetic.Approaches...)
}

// Figure8MaxTs returns the x-axis values of Fig. 8.
func Figure8MaxTs() []int {
	return append([]int(nil), synthetic.Figure8MaxTs...)
}

// GenerateSynthetic builds a random application with a known causal
// path (deterministic per seed).
func GenerateSynthetic(p SyntheticParams) (*SyntheticInstance, error) {
	return synthetic.Generate(p)
}

// RunSyntheticInstance measures one approach on one instance,
// verifying the discovered path against the ground truth.
func RunSyntheticInstance(ctx context.Context, inst *SyntheticInstance, approach Approach, seed int64) (int, error) {
	return synthetic.RunInstance(ctx, inst, approach, seed)
}

// SyntheticNoise configures optional runtime nondeterminism for sweeps
// (zero value = deterministic single-observation worlds). Noisy worlds
// run through the adaptive trial oracle.
type SyntheticNoise = synthetic.Noise

// SyntheticSweepOptions configures a synthetic sweep beyond its shape:
// the noise model and the instance-pool width (results are identical
// for any width).
type SyntheticSweepOptions = synthetic.SweepOptions

// RunSyntheticSetting generates `instances` applications for one MAXt
// value and measures all four approaches on each (one Fig. 8 x-axis
// position; the paper uses 500 instances).
func RunSyntheticSetting(ctx context.Context, maxT, instances int, baseSeed int64) (*SyntheticSetting, error) {
	return synthetic.RunSetting(ctx, maxT, instances, baseSeed)
}

// RunSyntheticSweep is RunSyntheticSetting with explicit sweep options
// (noise model, pool width).
func RunSyntheticSweep(ctx context.Context, maxT, instances int, baseSeed int64, opts SyntheticSweepOptions) (*SyntheticSetting, error) {
	return synthetic.RunSettingOpts(ctx, maxT, instances, baseSeed, opts)
}
