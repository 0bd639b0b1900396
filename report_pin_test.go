package aid_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"aid"
)

var updateGoldens = flag.Bool("update", false, "rewrite the testdata goldens from the current tree")

// TestCaseStudyReportGoldens pins the full JSON report of every case
// study, and the event stream its run emitted (MarshalEvent lines),
// byte for byte. The memory-discipline work (overlay corpus reuse,
// scratch kernels) must be invisible in the output: any drift here
// means an optimization changed behavior, not just allocation counts.
//
// Settings mirror benchOpts (trimmed 30+30 corpus, 5 replays) so the
// pin exercises the same configuration the Figure 7 benchmarks and the
// allocs/op gate measure. The run uses one worker because the number
// of CollectProgress events follows the pool width; the report does
// not.
func TestCaseStudyReportGoldens(t *testing.T) {
	for _, s := range aid.CaseStudies() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			var events []byte
			obs := aid.ObserverFunc(func(e aid.Event) {
				line, err := aid.MarshalEvent(e)
				if err != nil {
					t.Error(err)
				}
				events = append(append(events, line...), '\n')
			})
			pipeline := aid.New(aid.WithCorpusSize(30, 30), aid.WithReplays(5), aid.WithWorkers(1), aid.WithObserver(obs))
			rep, err := pipeline.Run(context.Background(), aid.FromStudy(s))
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", "reports", s.Name+".json"), got)
			checkGolden(t, filepath.Join("testdata", "events", s.Name+".jsonl"), events)
		})
	}
}

// checkGolden compares got with the golden file at path byte for byte,
// or rewrites the file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its golden:\n got %d bytes\nwant %d bytes\nfirst divergence at byte %d",
			path, len(got), len(want), firstDiff(got, want))
	}
}

// TestFormatFigure7Golden pins the paper's Fig. 7 table as
// FormatFigure7 renders it from the six pinned reports: the goldens
// decode into Reports, and the table must match testdata/figure7.txt
// byte for byte (-update rewrites it). Every row's numeric columns must
// end where the header's labels do, whatever the width of its Issue.
func TestFormatFigure7Golden(t *testing.T) {
	var reports []*aid.Report
	for _, s := range aid.CaseStudies() {
		raw, err := os.ReadFile(filepath.Join("testdata", "reports", s.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var rep aid.Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		reports = append(reports, &rep)
	}
	got := []byte(aid.FormatFigure7(reports))
	lines := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	header := fieldEnds(lines[0])
	for _, row := range lines[1:] {
		ends := fieldEnds(row)
		if !slices.Equal(ends[len(ends)-5:], header[len(header)-5:]) {
			t.Fatalf("row %q: numeric columns end at %v, the header's at %v", row, ends[len(ends)-5:], header[len(header)-5:])
		}
	}
	path := filepath.Join("testdata", "figure7.txt")
	if *updateGoldens {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Fig. 7 table drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// fieldEnds returns the offset just past each space-separated field of
// line.
func fieldEnds(line string) []int {
	var ends []int
	for i := range line {
		if line[i] != ' ' && (i+1 == len(line) || line[i+1] == ' ') {
			ends = append(ends, i+1)
		}
	}
	return ends
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestDetachedReportStableAcrossRuns pins that a report returned by Run
// owns its storage: its bytes cannot change no matter how many later
// runs follow on the same Pipeline. A slice shared with any scratch a
// later run reuses shows up here as a mutated early report.
func TestDetachedReportStableAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run aliasing sweep")
	}
	ctx := context.Background()
	studies := aid.CaseStudies()
	p := aid.New(aid.WithCorpusSize(20, 20), aid.WithReplays(3))
	rep, err := p.Run(ctx, aid.FromStudy(studies[0]))
	if err != nil {
		t.Fatal(err)
	}
	before, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// Follow it with differently-shaped reports.
	for round := 0; round < 2; round++ {
		for _, s := range studies[1:] {
			if _, err := p.Run(ctx, aid.FromStudy(s)); err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
		}
	}
	after, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("detached report mutated by later runs (first diff at byte %d)", firstDiff(before, after))
	}
}
