package inject_test

import (
	"context"
	"math/rand"
	"testing"

	"aid/internal/acdag"
	"aid/internal/casestudy"
	"aid/internal/grouptest"
	"aid/internal/inject"
	"aid/internal/predicate"
	"aid/internal/statdebug"
)

// TestPersistsMatchesIntervene is the verdict query's differential
// test on the six case studies at 30+30: for every group TAGT requests
// (grouptest.Adaptive, answered by the Intervene-derived reference
// oracle) and for 100 random subsets of each candidate pool,
// Persists(g) must equal "some observation of Intervene(g) failed".
// The verdict side runs on its own executor at pool width 4, so its
// early exit and sequential sweep share no state with the reference.
func TestPersistsMatchesIntervene(t *testing.T) {
	ctx := context.Background()
	for _, s := range casestudy.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			rc := casestudy.CollectConfig{Successes: 30, Failures: 30, SeedCap: 4000}
			logs, failSeeds, err := casestudy.Collect(ctx, s, rc)
			if err != nil {
				t.Fatal(err)
			}
			cfg := s.Config()
			corpus := predicate.ExtractLogs(logs, cfg)
			dag, _, err := acdag.Build(corpus, statdebug.FullyDiscriminative(corpus), acdag.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var pool []predicate.ID
			for _, id := range dag.Nodes() {
				if id != predicate.FailureID {
					pool = append(pool, id)
				}
			}
			executor := func(workers int) *inject.Executor {
				return &inject.Executor{
					Prog: s.Program, Corpus: corpus,
					Seeds: failSeeds[:5], Cfg: cfg,
					FailureSig: s.FailureSig, MaxSteps: s.MaxSteps, Workers: workers,
				}
			}
			ref, verdict := executor(1), executor(4)
			var seen [2]int // verdicts observed: [stopped, persisted]
			check := func(group []predicate.ID) bool {
				t.Helper()
				obs, err := ref.Intervene(ctx, group)
				if err != nil {
					t.Fatal(err)
				}
				want := false
				for _, o := range obs {
					want = want || o.Failed
				}
				got, err := verdict.Persists(ctx, group)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("group %v: Persists = %v, Intervene observed a failure: %v", group, got, want)
				}
				if want {
					seen[1]++
				} else {
					seen[0]++
				}
				return want
			}

			tests := 0
			oracle := func(group []predicate.ID) (bool, error) {
				tests++
				return !check(group), nil
			}
			if _, err := grouptest.Adaptive(pool, oracle, 1); err != nil {
				t.Fatal(err)
			}
			if tests == 0 {
				t.Fatal("TAGT requested no groups")
			}
			r := rand.New(rand.NewSource(int64(len(pool))))
			for i := 0; i < 100; i++ {
				var group []predicate.ID
				for _, id := range pool {
					if r.Intn(2) == 0 {
						group = append(group, id)
					}
				}
				check(group)
			}
			if seen[0] == 0 || seen[1] == 0 {
				t.Fatalf("checks covered only one verdict: %d stopped, %d persisted", seen[0], seen[1])
			}
			if len(verdict.Quarantined()) != 0 || verdict.Missed != 0 {
				t.Fatalf("verdict executor quarantined %d replays, missed %d", len(verdict.Quarantined()), verdict.Missed)
			}
		})
	}
}
