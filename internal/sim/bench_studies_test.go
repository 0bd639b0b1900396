package sim_test

import (
	"context"
	"testing"

	"aid/internal/acdag"
	"aid/internal/casestudy"
	"aid/internal/inject"
	"aid/internal/predicate"
	"aid/internal/sim"
	"aid/internal/statdebug"
)

// BenchmarkSimulateStudies is the simulator's own figure on the six case
// studies: host time per op, where an op is one verdict-only sweep over
// the study's first 100 collection seeds plus 5 of its failing seeds
// replayed under a TAGT-sized plan (one repairing every predicate of
// TAGT's candidate pool: the AC-DAG's nodes over the 50+50 corpus, less
// the failure). No run assembles a
// trace, so the op allocates nothing once the pooled machines have
// grown. Divide ns/op by 105 for host time per simulated run.
func BenchmarkSimulateStudies(b *testing.B) {
	never := func(sim.Verdict) bool { return false }
	for _, s := range casestudy.All() {
		b.Run(s.Name, func(b *testing.B) {
			set, failSeeds, err := casestudy.Collect(context.Background(), s,
				casestudy.CollectConfig{Successes: 50, Failures: 50, SeedCap: 4000, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			corpus := predicate.Extract(set, s.Config())
			dag, _, err := acdag.Build(corpus, statdebug.FullyDiscriminative(corpus), acdag.BuildOptions{})
			if err != nil {
				b.Fatal(err)
			}
			var pool []predicate.ID
			for _, id := range dag.Nodes() {
				if id != predicate.FailureID {
					pool = append(pool, id)
				}
			}
			plan, err := inject.PlanFor(corpus, pool)
			if err != nil {
				b.Fatal(err)
			}
			base, err := sim.Prepare(s.Program, nil)
			if err != nil {
				b.Fatal(err)
			}
			tagt, err := sim.Prepare(s.Program, plan)
			if err != nil {
				b.Fatal(err)
			}
			replays := failSeeds[:5]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for seed := int64(1); seed <= 100; seed++ {
					base.RunIf(seed, s.MaxSteps, never)
				}
				for _, seed := range replays {
					tagt.RunIf(seed, s.MaxSteps, never)
				}
			}
		})
	}
}
