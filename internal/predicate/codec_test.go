package predicate

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"aid/internal/trace"
)

func corpusFixture() *Corpus {
	c := NewCorpus()
	c.AddPred(FailurePredicate())
	c.AddPred(Predicate{
		ID: "race:A|B@x", Kind: KindDataRace,
		Methods: []string{"A", "B"}, Object: "x", Stamp: ByStart,
		Repair: Intervention{Kind: IvLockMethods, Methods: []string{"A", "B"}, Safe: true},
		Desc:   "data race between A and B on x",
	})
	v := Predicate{
		ID: "ret:C#1", Kind: KindWrongReturn,
		Methods: []string{"C"}, Instance: 1, Stamp: ByEnd,
		Repair: Intervention{Kind: IvOverrideReturn, Methods: []string{"C"}, Value: 7, Safe: true},
	}
	c.AddPred(v)
	c.AddLog("s1", false, map[ID]Occurrence{})
	c.AddLog("f1", true, map[ID]Occurrence{
		FailureID:    {Start: 90, End: 91, Thread: NoThread},
		"race:A|B@x": {Start: 5, End: 9, Thread: NoThread},
		"ret:C#1":    {Start: 20, End: 30, Thread: 2},
	})
	return c
}

func TestCorpusCodecRoundTrip(t *testing.T) {
	c := corpusFixture()
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Preds, c.Preds) {
		t.Fatalf("predicates mismatch:\n got %+v\nwant %+v", got.Preds, c.Preds)
	}
	if got.NumLogs() != c.NumLogs() {
		t.Fatalf("log count mismatch")
	}
	for i := 0; i < c.NumLogs(); i++ {
		if got.Log(i).ExecID() != c.Log(i).ExecID() || got.Log(i).Failed() != c.Log(i).Failed() {
			t.Fatalf("log %d header mismatch", i)
		}
		if !reflect.DeepEqual(got.Log(i).OccMap(), c.Log(i).OccMap()) {
			t.Fatalf("log %d occurrences mismatch", i)
		}
	}
	// Index rebuilt: lookups work on the decoded corpus.
	if got.Pred("race:A|B@x") == nil || !got.Pred("race:A|B@x").Repair.Safe {
		t.Fatal("decoded corpus lost predicate index or repair")
	}
}

func TestCorpusDecodeRejectsDanglingReference(t *testing.T) {
	raw := `{"predicates":[{"ID":"p","Kind":5}],"logs":[{"execId":"f","failed":true,"occurrences":{"ghost":{"start":1,"end":2,"thread":-1}}}]}`
	if _, err := DecodeCorpus(strings.NewReader(raw)); err == nil {
		t.Fatal("dangling occurrence reference accepted")
	}
	if _, err := DecodeCorpus(strings.NewReader("{broken")); err == nil {
		t.Fatal("corrupt JSON accepted")
	}
}

func TestCorpusCodecPreservesThreads(t *testing.T) {
	c := corpusFixture()
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	occ, _ := got.Log(1).Occ("ret:C#1")
	if occ.Thread != trace.ThreadID(2) {
		t.Fatalf("thread attribution lost: %+v", occ)
	}
	if f, _ := got.Log(1).Occ(FailureID); f.Thread != NoThread {
		t.Fatal("NoThread sentinel lost")
	}
}
