package inject

import (
	"context"
	"testing"

	"aid/internal/bitvec"
	"aid/internal/core"
	"aid/internal/predicate"
	"aid/internal/sim"
)

var (
	observeSink []core.Observation
	prepSink    *sim.Prepared
)

// TestObserveSteadyStateAllocs pins what an intervention round costs
// beyond its replays' simulation: once a warm-up round has compiled the
// monitors and grown their scratch, an Intervene round at pool width 1
// allocates what preparing the group's plan does (the plan and its
// splice) and what escapes into the scheduler memo (the observation
// slice and one Observed bitset per replay), and nothing else. Replays are
// observed from the machine's logs, so none assembles a trace; one that
// did would add its calls slice and access arena per replay.
//
// The machine pool is a sync.Pool, which drops machines at a GC and, in
// race-detector builds, at random on Put; a dropped machine is rebuilt
// and regrows its logs. A round's count is therefore the fewest
// allocations over many rounds, each measured alone: with no machine
// dropped, every round allocates the same.
func TestObserveSteadyStateAllocs(t *testing.T) {
	_, _, exec := executorFixture(t)
	exec.Workers = 1
	ctx := context.Background()
	group := []predicate.ID{"slow:Slow#0"}
	obs, err := exec.Intervene(ctx, group) // compiles the monitors and grows their scratch
	if err != nil {
		t.Fatal(err)
	}
	observed := 0
	for _, o := range obs {
		observed += o.Observed.Len()
	}
	if len(obs) != len(exec.Seeds) || observed == 0 {
		t.Fatalf("%d observations of %d replays observed %d predicates: the bound would only count the slice", len(obs), len(exec.Seeds), observed)
	}
	round := -1.0
	for i := 0; i < 40; i++ {
		n := testing.AllocsPerRun(1, func() {
			if observeSink, err = exec.Intervene(ctx, group); err != nil {
				t.Fatal(err)
			}
		})
		if round < 0 || n < round {
			round = n
		}
	}
	prepare := testing.AllocsPerRun(20, func() {
		pp, err := exec.prepare(group)
		if err != nil {
			t.Fatal(err)
		}
		prepSink = pp
	})
	escaping := testing.AllocsPerRun(20, func() {
		out := make([]core.Observation, len(obs))
		for i := range obs {
			out[i] = core.Observation{Observed: exec.table.Set(bitvec.New(len(exec.monitors.IDs())))}
		}
		observeSink = out
	})
	t.Logf("a round allocates %.0f times: the plan %.0f, the memo %.0f", round, prepare, escaping)
	// The memo's share is one object per replay plus the slice, however
	// many predicates a replay observes.
	if want := float64(1 + len(obs)); escaping != want {
		t.Fatalf("the memo's observations take %.0f allocations, want %.0f: the slice and one bitset per replay", escaping, want)
	}
	if prepare == 0 || round > prepare+escaping {
		t.Fatalf("an Intervene round allocates %.0f times, want at most the plan's %.0f plus the %.0f escaping into the memo", round, prepare, escaping)
	}
}
