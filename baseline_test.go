package aid_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"aid"
)

// tagtLines matches the two TAGT keys' lines of an indented report.
var tagtLines = regexp.MustCompile(`(?m)^  "tagt(Interventions|WorstCase)": -?\d+,\n`)

// runWithEvents runs the pipeline on the study and returns the report's
// JSON, its text summary, and the run's event stream as wire lines. It
// also checks that json.Marshal encodes the report as Report.JSON does.
func runWithEvents(t *testing.T, study *aid.CaseStudy, opts ...aid.Option) (js []byte, summary string, events []byte) {
	t.Helper()
	var stream bytes.Buffer
	opts = append(opts, aid.WithObserver(aid.ObserverFunc(func(e aid.Event) {
		line, err := aid.MarshalEvent(e)
		if err != nil {
			t.Errorf("MarshalEvent(%T): %v", e, err)
		}
		stream.Write(line)
		stream.WriteByte('\n')
	})))
	rep, err := aid.New(opts...).Run(context.Background(), aid.FromStudy(study))
	if err != nil {
		t.Fatal(err)
	}
	js, err = rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// json.Marshal goes through MarshalJSON; it must agree with JSON.
	compact, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, js); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact, want.Bytes()) {
		t.Errorf("%s: json.Marshal and Report.JSON disagree", study.Name)
	}
	return js, rep.Format(), stream.Bytes()
}

// TestBaselineOffDropsOnlyTAGT pins what WithBaseline(false) changes: for
// six studies at seeds 1–5, the report's JSON is the baseline run's with
// its two TAGT keys removed, the text summary names no TAGT, and the
// event stream is the same, line for line.
func TestBaselineOffDropsOnlyTAGT(t *testing.T) {
	for _, s := range aid.CaseStudies() {
		for seed := int64(1); seed <= 5; seed++ {
			onJS, onSummary, onEvents := runWithEvents(t, s, aid.WithSeed(seed), aid.WithWorkers(1))
			offJS, offSummary, offEvents := runWithEvents(t, s, aid.WithSeed(seed), aid.WithWorkers(1), aid.WithBaseline(false))
			if n := len(tagtLines.FindAll(onJS, -1)); n != 2 {
				t.Fatalf("%s seed %d: the baseline run's report has %d TAGT key lines, want 2", s.Name, seed, n)
			}
			if want := tagtLines.ReplaceAll(onJS, nil); !bytes.Equal(offJS, want) {
				t.Errorf("%s seed %d: the report without the baseline is not the baseline run's minus its TAGT keys (first divergence at byte %d)",
					s.Name, seed, firstDiff(offJS, want))
			}
			if !strings.Contains(onSummary, "TAGT") || strings.Contains(offSummary, "TAGT") {
				t.Errorf("%s seed %d: summaries with and without the baseline:\n%s\n%s", s.Name, seed, onSummary, offSummary)
			}
			if !bytes.Equal(onEvents, offEvents) {
				t.Errorf("%s seed %d: the event stream changed with the baseline off", s.Name, seed)
			}
		}
	}
}

// TestReportTAGTKeys pins when a report writes its TAGT keys: whenever
// the baseline ran, zeros included (grouptest.UpperBound is 0 for an
// empty causal path or a one-candidate pool), so a hand-built report and
// every decoded golden re-encode to their own bytes.
func TestReportTAGTKeys(t *testing.T) {
	js, err := (&aid.Report{Study: "hand-built"}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"tagtInterventions": 0,`, `"tagtWorstCase": 0,`} {
		if !bytes.Contains(js, []byte(key)) {
			t.Errorf("a zero-valued report lost %s:\n%s", key, js)
		}
	}

	goldens, err := filepath.Glob(filepath.Join("testdata", "reports", "*.json"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no report goldens (%v)", err)
	}
	for _, path := range goldens {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep aid.Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, raw) {
			t.Errorf("%s does not re-encode to its own bytes (first divergence at byte %d)", path, firstDiff(got, raw))
		}
	}
}
