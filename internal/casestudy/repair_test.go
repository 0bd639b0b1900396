package casestudy

import (
	"context"
	"testing"

	"aid/internal/predicate"
	"aid/internal/statdebug"
)

// TestStudyPredicateInventories asserts each study's corpus contains
// the predicate kinds its bug class is built around.
func TestStudyPredicateInventories(t *testing.T) {
	wantKind := map[string]predicate.Kind{
		"npgsql":          predicate.KindDataRace,
		"kafka":           predicate.KindOrderViolation,
		"cosmosdb":        predicate.KindTooSlow,
		"network":         predicate.KindWrongReturn,
		"buildandtest":    predicate.KindOrderViolation,
		"healthtelemetry": predicate.KindDataRace,
	}
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			rc := CollectConfig{Successes: 20, Failures: 20, SeedCap: 4000}
			logs, _, err := Collect(context.Background(), s, rc)
			if err != nil {
				t.Fatal(err)
			}
			corpus := predicate.ExtractLogs(logs, s.Config())
			fully := statdebug.FullyDiscriminative(corpus)
			found := false
			for _, id := range fully {
				if corpus.Pred(id).Kind == wantKind[s.Name] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("no fully-discriminative %v predicate in %s; have %v",
					wantKind[s.Name], s.Name, fully)
			}
		})
	}
}

// TestRunnerHelpers covers the study registry.
func TestRunnerHelpers(t *testing.T) {
	if ByName("npgsql") == nil || ByName("ghost") != nil {
		t.Fatal("ByName lookup broken")
	}
	if len(All()) != 6 {
		t.Fatalf("All() = %d studies, want 6", len(All()))
	}
}

func TestCollectErrorsWhenTargetsUnreachable(t *testing.T) {
	s := Npgsql()
	rc := CollectConfig{Successes: 10, Failures: 10, SeedCap: 3}
	if _, _, err := Collect(context.Background(), s, rc); err == nil {
		t.Fatal("Collect with tiny seed cap should fail")
	}
}
