package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// randomExecution generates a structurally valid execution with random
// spans, accesses and outcomes.
func randomExecution(rng *rand.Rand, id int) Execution {
	e := Execution{
		ID:   string(rune('a'+id%26)) + "-exec",
		Seed: rng.Int63n(1 << 30),
	}
	if rng.Intn(2) == 1 {
		e.Outcome = Failure
		e.FailureSig = "sig-" + string(rune('A'+rng.Intn(4)))
	}
	nCalls := rng.Intn(6)
	for c := 0; c < nCalls; c++ {
		start := Time(rng.Intn(100))
		call := MethodCall{
			Method: "M" + string(rune('0'+rng.Intn(5))),
			Thread: ThreadID(rng.Intn(3)),
			Start:  start,
			End:    start + Time(1+rng.Intn(50)),
			Return: Value{Int: int64(rng.Intn(10) - 5)},
		}
		if rng.Intn(3) == 0 {
			call.Return = Value{Void: true}
		}
		if rng.Intn(4) == 0 {
			call.Exception = "Exc" + string(rune('0'+rng.Intn(3)))
		}
		nAcc := rng.Intn(3)
		for a := 0; a < nAcc; a++ {
			acc := Access{
				Object: ObjectID("obj" + string(rune('0'+rng.Intn(3)))),
				Kind:   AccessKind(rng.Intn(2)),
				At:     call.Start + Time(rng.Intn(int(call.End-call.Start))),
			}
			if rng.Intn(2) == 1 {
				acc.Locks = []string{"mu" + string(rune('0'+rng.Intn(2)))}
			}
			call.Accesses = append(call.Accesses, acc)
		}
		e.Calls = append(e.Calls, call)
	}
	return e
}

// Property: Encode then DecodeLogs round-trips arbitrary execution sets
// exactly: the decoded logs are the interned set, they materialize back
// to it, and they encode to the same bytes.
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prop := func() bool {
		s := &Set{}
		n := rng.Intn(8)
		for i := 0; i < n; i++ {
			s.Executions = append(s.Executions, randomExecution(rng, i))
		}
		var buf bytes.Buffer
		if err := Encode(&buf, s); err != nil {
			return false
		}
		want := slices.Clone(buf.Bytes())
		got, err := DecodeLogs(&buf, "")
		if err != nil || !reflect.DeepEqual(got, Intern(s)) {
			return false
		}
		var again bytes.Buffer
		if err := EncodeLogs(&again, got); err != nil || !bytes.Equal(again.Bytes(), want) {
			return false
		}
		if len(s.Executions) == 0 {
			return len(got.Runs) == 0
		}
		return reflect.DeepEqual(got.Set(), s)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
