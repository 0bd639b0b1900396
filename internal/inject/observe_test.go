package inject

import (
	"context"
	"testing"

	"aid/internal/core"
	"aid/internal/predicate"
	"aid/internal/sim"
)

var observeSink []core.Observation

// TestObserveSteadyStateAllocs pins the point of compiled monitors:
// once the monitors' scratch has grown, observing a bundle allocates
// only what escapes into the scheduler memo, the observation slice and
// one Observed map per replay.
func TestObserveSteadyStateAllocs(t *testing.T) {
	_, corpus, exec := executorFixture(t)
	group := []predicate.ID{"slow:Slow#0"}
	if _, err := exec.Intervene(context.Background(), group); err != nil {
		t.Fatal(err) // compiles the monitors and grows their scratch
	}
	plan, err := PlanFor(corpus, group)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := sim.Prepare(exec.Prog, plan)
	if err != nil {
		t.Fatal(err)
	}
	bundle := make([]replayResult, len(exec.Seeds))
	for i, seed := range exec.Seeds {
		bundle[i].exec = pp.Run(seed, exec.MaxSteps)
	}
	exec.mu.Lock()
	defer exec.mu.Unlock()
	obs, err := exec.observe(bundle, group)
	if err != nil {
		t.Fatal(err)
	}
	observed := 0
	for _, o := range obs {
		observed += len(o.Observed)
	}
	if observed == 0 {
		t.Fatal("the bundle observed nothing: the bound would only count the slice")
	}
	got := testing.AllocsPerRun(20, func() {
		observeSink, _ = exec.observe(bundle, group)
	})
	escaping := testing.AllocsPerRun(20, func() {
		out := make([]core.Observation, 0, len(obs))
		for _, o := range obs {
			m := make(map[predicate.ID]bool, len(o.Observed))
			for id := range o.Observed {
				m[id] = true
			}
			out = append(out, core.Observation{Observed: m})
		}
		observeSink = out
	})
	if got > escaping {
		t.Fatalf("observe allocates %.1f times per bundle, want at most the %.1f escaping allocations", got, escaping)
	}
}
