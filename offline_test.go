package aid_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aid"
)

// TestTraceFileRoundTrip pins the offline-debugging loop: a corpus
// saved with WriteTraces and reloaded through FromTraceFile yields a
// report byte-identical to the live pipeline's.
func TestTraceFileRoundTrip(t *testing.T) {
	ctx := context.Background()
	study := aid.CaseStudyByName("buildandtest")
	pipeline := aid.New(aid.WithCorpusSize(20, 20))

	live, err := pipeline.Run(ctx, aid.FromStudy(study))
	if err != nil {
		t.Fatal(err)
	}

	traces, err := pipeline.Collect(ctx, aid.FromStudy(study))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	if err := aid.WriteTraces(path, traces); err != nil {
		t.Fatal(err)
	}

	offline, err := pipeline.Run(ctx, aid.FromTraceFile(path).ForStudy(study))
	if err != nil {
		t.Fatal(err)
	}
	liveJSON, err := live.JSON()
	if err != nil {
		t.Fatal(err)
	}
	offlineJSON, err := offline.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveJSON, offlineJSON) {
		t.Errorf("offline report differs from live report:\n--- live\n%s\n--- offline\n%s", liveJSON, offlineJSON)
	}
}

// TestTraceFileWithoutProgram checks the early stages work on a purely
// offline corpus and Discover fails with a clear error.
func TestTraceFileWithoutProgram(t *testing.T) {
	ctx := context.Background()
	study := aid.CaseStudyByName("network")
	pipeline := aid.New(aid.WithCorpusSize(10, 10))
	traces, err := pipeline.Collect(ctx, aid.FromStudy(study))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	if err := aid.WriteTraces(path, traces); err != nil {
		t.Fatal(err)
	}

	src := aid.FromTraceFile(path)
	loaded, err := pipeline.Collect(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	succ, fail := loaded.Set.Counts()
	if succ != 10 || fail != 10 {
		t.Fatalf("reloaded %d/%d executions, want 10/10", succ, fail)
	}
	corpus := pipeline.Extract(loaded)
	ranking := pipeline.Rank(corpus)
	dag, _, err := pipeline.BuildDAG(corpus, ranking.Fully)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.Discover(ctx, loaded, corpus, dag); err == nil {
		t.Fatal("Discover succeeded without a program")
	}
}

// TestWriteTracesRejectsEmpty checks the nil guards.
func TestWriteTracesRejectsEmpty(t *testing.T) {
	if err := aid.WriteTraces(filepath.Join(t.TempDir(), "x.jsonl"), nil); err == nil {
		t.Fatal("WriteTraces(nil) succeeded")
	}
	if err := aid.WriteTraces(filepath.Join(t.TempDir(), "x.jsonl"), &aid.Traces{}); err == nil {
		t.Fatal("WriteTraces(empty) succeeded")
	}
}

// TestTraceFileBadInputDiagnostics table-tests FromTraceFile over bad
// corpora: an empty, truncated, or non-JSON-lines file must fail at
// collection time with an error naming the file (and line, for parse
// errors) — never surface as a zero-trace failure or a panic deeper in
// the pipeline.
func TestTraceFileBadInputDiagnostics(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	valid := `{"id":"a","outcome":1}`
	cases := []struct {
		name     string
		content  string
		wantLine string // additional substring beyond the file name
	}{
		{"empty file", "", ""},
		{"whitespace only", "\n\n  \n", ""},
		{"non-JSON-lines", "this is not a trace corpus\n", ":1"},
		{"truncated record", valid + "\n" + `{"id":"b","outco`, ":2"},
		{"binary garbage", "\x00\x01\x02\xff\n", ":1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_")+".jsonl")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := aid.New().Run(ctx, aid.FromTraceFile(path))
			if err == nil {
				t.Fatal("pipeline over bad corpus succeeded")
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not name the file %q", err, path)
			}
			if tc.wantLine != "" && !strings.Contains(err.Error(), path+tc.wantLine) {
				t.Fatalf("error %q does not name the line (%q)", err, path+tc.wantLine)
			}
		})
	}
}
