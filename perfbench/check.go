package main

import (
	"errors"
	"fmt"
	"strings"

	"aid"
	"aid/internal/synthetic"
)

// failKind is why an op counts as failed. Every kind counts the same
// toward error_rate: a fast wrong answer is a failure, not a sample.
type failKind int

const (
	failError       failKind = iota // the op returned an error
	failRoot                        // root cause does not match CaseStudy.WantRootPrefix
	failPath                        // a synthetic path differs from the ground truth
	failHTTP                        // an HTTP status outside 2xx, 429 included
	failState                       // a session did not end in state done
	failRepeat                      // a repeated spec over the same corpus bytes changed its report
	failEquivalence                 // a traced op disagrees with the untraced program
	numFailKinds
)

var failNames = [numFailKinds]string{
	"error", "root_cause", "synthetic_path", "http_status", "session_state", "report_mismatch", "trace_equivalence",
}

func (k failKind) String() string { return failNames[k] }

// failure is one failed check of an op.
type failure struct {
	kind   failKind
	detail string
}

func failf(kind failKind, format string, args ...any) *failure {
	return &failure{kind: kind, detail: fmt.Sprintf(format, args...)}
}

// tally counts attempted and failed ops, and failed checks by kind.
type tally struct {
	attempted int
	failed    int
	byKind    [numFailKinds]int
	// examples keeps the first few failures for the diagnostic output.
	examples []string
}

// add records one op with its failed checks (nil entries are passes).
func (t *tally) add(fails ...*failure) {
	t.attempted++
	bad := false
	for _, f := range fails {
		if f == nil {
			continue
		}
		bad = true
		t.byKind[f.kind]++
		if len(t.examples) < 5 {
			t.examples = append(t.examples, f.kind.String()+": "+f.detail)
		}
	}
	if bad {
		t.failed++
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for k := range t.byKind {
		t.byKind[k] += o.byKind[k]
	}
	for _, e := range o.examples {
		if len(t.examples) < 5 {
			t.examples = append(t.examples, e)
		}
	}
}

func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 1
	}
	return float64(t.failed) / float64(t.attempted)
}

// checkStudyRun checks one debugging run of a case study.
func checkStudyRun(study string, rep *aid.Report, err error, wantPrefix string) *failure {
	if err != nil {
		return failf(failError, "%s: %v", study, err)
	}
	return checkRoot(study, rep.RootCause, wantPrefix)
}

// checkRoot checks a root cause against the study's known one.
func checkRoot(study, root, wantPrefix string) *failure {
	if !strings.HasPrefix(root, wantPrefix) {
		return failf(failRoot, "%s: root cause %q, want prefix %q", study, root, wantPrefix)
	}
	return nil
}

// checkSynthetic checks one Fig. 8 setting run; the sweep itself
// compares every approach's path with the instance's ground truth.
func checkSynthetic(maxT int, err error) *failure {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, synthetic.ErrMisidentified):
		return failf(failPath, "MaxT %d: %v", maxT, err)
	default:
		return failf(failError, "MaxT %d: %v", maxT, err)
	}
}

// checkHTTP checks a response status.
func checkHTTP(what string, code int) *failure {
	if code < 200 || code > 299 {
		return failf(failHTTP, "%s: HTTP %d", what, code)
	}
	return nil
}
