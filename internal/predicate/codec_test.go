package predicate

import (
	"bytes"
	"encoding/json"
	"reflect"
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

// encoded returns c's encoding read back into the file form.
func encoded(t *testing.T, c *Corpus) corpusFile {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var f corpusFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCorpusCodecRoundTrip(t *testing.T) {
	c := corpusFixture()
	got := encoded(t, c)
	if !reflect.DeepEqual(got.Preds, c.Preds) {
		t.Fatalf("predicates mismatch:\n got %+v\nwant %+v", got.Preds, c.Preds)
	}
	if len(got.Logs) != c.NumLogs() {
		t.Fatalf("log count mismatch")
	}
	for i, l := range got.Logs {
		if l.ExecID != c.Log(i).ExecID() || l.Failed != c.Log(i).Failed() {
			t.Fatalf("log %d header mismatch", i)
		}
		if !reflect.DeepEqual(l.Occ, c.Log(i).OccMap()) {
			t.Fatalf("log %d occurrences mismatch", i)
		}
	}
}

func TestCorpusCodecPreservesThreads(t *testing.T) {
	got := encoded(t, corpusFixture())
	if occ := got.Logs[1].Occ["ret:C#1"]; occ.Thread != trace.ThreadID(2) {
		t.Fatalf("thread attribution lost: %+v", occ)
	}
	if f := got.Logs[1].Occ[FailureID]; f.Thread != NoThread {
		t.Fatal("NoThread sentinel lost")
	}
}
