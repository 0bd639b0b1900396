package casestudy

import (
	"context"
	"reflect"
	"testing"
)

// TestCollectDeterministicAcrossWorkers pins the chunked sweep's
// contract: the corpus and failing seeds match the sequential sweep
// exactly for any pool width.
func TestCollectDeterministicAcrossWorkers(t *testing.T) {
	s := Kafka()
	rc := CollectConfig{Successes: 15, Failures: 15, SeedCap: 4000}

	rc.Workers = 1
	seqSet, seqSeeds, err := Collect(context.Background(), s, rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.Workers = 7
	parSet, parSeeds, err := Collect(context.Background(), s, rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqSeeds, parSeeds) {
		t.Fatalf("failing seeds differ: %v vs %v", seqSeeds, parSeeds)
	}
	if !reflect.DeepEqual(seqSet, parSet) {
		t.Fatal("collected corpus differs between worker counts")
	}
}
