package synthetic

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// TestRunSettingDeterministicAcrossWorkers is the Fig. 8 determinism
// regression test: a sweep setting must be byte-identical whether the
// instance pool runs one worker or many, with and without noise.
func TestRunSettingDeterministicAcrossWorkers(t *testing.T) {
	for _, noise := range []Noise{{}, {ManifestProb: 0.7, SymptomNoise: 0.15}} {
		seq, err := RunSettingOpts(context.Background(), 10, 20, 99, SweepOptions{Noise: noise, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, 9} {
			par, err := RunSettingOpts(context.Background(), 10, 20, 99, SweepOptions{Noise: noise, Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("noise=%+v workers=%d: setting differs from single-worker run", noise, workers)
			}
			seqJSON, err := json.Marshal(seq)
			if err != nil {
				t.Fatal(err)
			}
			parJSON, err := json.Marshal(par)
			if err != nil {
				t.Fatal(err)
			}
			if string(seqJSON) != string(parJSON) {
				t.Fatalf("noise=%+v workers=%d: serialized setting not byte-identical", noise, workers)
			}
		}
	}
}
