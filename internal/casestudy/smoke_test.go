package casestudy

import (
	"testing"

	"aid/internal/sim"
)

// failureRate is the share of seeds 1..n on which the study fails with
// its own signature. Only verdicts are read, so no trace is assembled.
func failureRate(t *testing.T, s *Study, n int) float64 {
	t.Helper()
	pp, err := sim.Prepare(s.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	verdictOnly := func(sim.Verdict) bool { return false }
	fails := 0
	for seed := int64(1); seed <= int64(n); seed++ {
		if _, v := pp.RunIf(seed, s.MaxSteps, verdictOnly); v.Failed && v.Sig == s.FailureSig {
			fails++
		}
	}
	return float64(fails) / float64(n)
}

// TestStudiesFailIntermittently checks every study manifests its
// failure at a usable intermittent rate.
func TestStudiesFailIntermittently(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			if err := s.Program.Validate(); err != nil {
				t.Fatal(err)
			}
			rate := failureRate(t, s, 200)
			if rate == 0 {
				t.Fatalf("%s never failed in 200 seeds", s.Name)
			}
			if rate == 1 {
				t.Fatalf("%s always failed (not intermittent)", s.Name)
			}
			t.Logf("%s failure rate: %.0f%%", s.Name, rate*100)
		})
	}
}
