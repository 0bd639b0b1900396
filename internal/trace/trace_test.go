package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func span(method string, th ThreadID, start, end Time) MethodCall {
	return MethodCall{Method: method, Thread: th, Start: start, End: end}
}

func TestMethodCallDurationAndFailed(t *testing.T) {
	c := span("Foo", 1, 10, 25)
	if got := c.Duration(); got != 15 {
		t.Fatalf("Duration = %d, want 15", got)
	}
	if c.Failed() {
		t.Fatal("call without exception reported Failed")
	}
	c.Exception = "NullReference"
	if !c.Failed() {
		t.Fatal("call with exception not reported Failed")
	}
}

func TestOverlaps(t *testing.T) {
	cases := []struct {
		name string
		a, b MethodCall
		want bool
	}{
		{"disjoint", span("A", 1, 0, 10), span("B", 2, 20, 30), false},
		{"touching", span("A", 1, 0, 10), span("B", 2, 10, 20), false},
		{"partial", span("A", 1, 0, 15), span("B", 2, 10, 20), true},
		{"nested", span("A", 1, 0, 100), span("B", 2, 10, 20), true},
		{"identical", span("A", 1, 5, 9), span("B", 2, 5, 9), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.Overlaps(&tc.b); got != tc.want {
				t.Errorf("a.Overlaps(b) = %v, want %v", got, tc.want)
			}
			if got := tc.b.Overlaps(&tc.a); got != tc.want {
				t.Errorf("b.Overlaps(a) = %v, want %v (symmetry)", got, tc.want)
			}
		})
	}
}

func TestValueEqualAndString(t *testing.T) {
	if !IntValue(5).Equal(IntValue(5)) {
		t.Error("IntValue(5) != IntValue(5)")
	}
	if IntValue(5).Equal(IntValue(6)) {
		t.Error("IntValue(5) == IntValue(6)")
	}
	if IntValue(0).Equal(VoidValue()) {
		t.Error("IntValue(0) == VoidValue()")
	}
	if got := VoidValue().String(); got != "void" {
		t.Errorf("VoidValue().String() = %q", got)
	}
	if got := IntValue(-3).String(); got != "-3" {
		t.Errorf("IntValue(-3).String() = %q", got)
	}
}

func TestAccessKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatalf("AccessKind strings wrong: %q %q", Read, Write)
	}
}

func TestOutcomeString(t *testing.T) {
	if Success.String() != "success" || Failure.String() != "failure" {
		t.Fatalf("Outcome strings wrong: %q %q", Success, Failure)
	}
}

func TestSortCallsAndInstances(t *testing.T) {
	e := Execution{Calls: []MethodCall{
		span("B", 2, 20, 30),
		span("A", 1, 0, 10),
		span("A", 3, 15, 18),
		span("A", 2, 0, 5), // same start as A/1: thread breaks tie
	}}
	e.SortCalls()
	e.NumberInstances()
	got := make([]string, 0, 4)
	for _, c := range e.Calls {
		got = append(got, c.Method)
	}
	want := []string{"A", "A", "A", "B"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sorted methods = %v, want %v", got, want)
	}
	if e.Calls[0].Thread != 1 || e.Calls[1].Thread != 2 {
		t.Fatalf("tie-break by thread failed: %+v", e.Calls[:2])
	}
	// Instances number per-method in start order.
	if e.Calls[0].Instance != 0 || e.Calls[1].Instance != 1 || e.Calls[2].Instance != 2 {
		t.Fatalf("instances of A = %d,%d,%d, want 0,1,2",
			e.Calls[0].Instance, e.Calls[1].Instance, e.Calls[2].Instance)
	}
	if e.Calls[3].Instance != 0 {
		t.Fatalf("instance of B = %d, want 0", e.Calls[3].Instance)
	}
}

func TestExecutionQueries(t *testing.T) {
	e := Execution{Calls: []MethodCall{
		span("A", 1, 0, 10),
		span("B", 2, 5, 8),
		span("A", 1, 20, 30),
	}}
	e.SortCalls()
	e.NumberInstances()
	if got := len(e.CallsOf("A")); got != 2 {
		t.Fatalf("CallsOf(A) = %d spans, want 2", got)
	}
	if c := e.Call("A", 1); c == nil || c.Start != 20 {
		t.Fatalf("Call(A,1) = %+v, want span starting at 20", c)
	}
	if c := e.Call("C", 0); c != nil {
		t.Fatalf("Call(C,0) = %+v, want nil", c)
	}
	if got := e.Methods(); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Fatalf("Methods() = %v", got)
	}
}

func TestSetOutcomesAndSignatures(t *testing.T) {
	s := &Set{}
	s.Add(Execution{ID: "s1", Outcome: Success})
	s.Add(Execution{ID: "f1", Outcome: Failure, FailureSig: "crash@Foo"})
	s.Add(Execution{ID: "f2", Outcome: Failure, FailureSig: "hang@Bar"})
	s.Add(Execution{ID: "f3", Outcome: Failure, FailureSig: "crash@Foo"})

	succ, fail := s.Counts()
	if succ != 1 || fail != 3 {
		t.Fatalf("Counts = (%d,%d), want (1,3)", succ, fail)
	}
	if got := len(s.Successes()); got != 1 {
		t.Fatalf("Successes = %d", got)
	}
	if got := len(s.Failures()); got != 3 {
		t.Fatalf("Failures = %d", got)
	}
	sigs := s.Signatures()
	if !reflect.DeepEqual(sigs, []string{"crash@Foo", "hang@Bar"}) {
		t.Fatalf("Signatures = %v", sigs)
	}
	filtered := s.FilterSignature("crash@Foo")
	if succ, fail := filtered.Counts(); succ != 1 || fail != 2 {
		t.Fatalf("filtered Counts = (%d,%d), want (1,2)", succ, fail)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	s := &Set{}
	e := Execution{
		ID: "run-1", Seed: 42, Outcome: Failure, FailureSig: "crash",
		Calls: []MethodCall{{
			Method: "GetOrAdd", Thread: 2, Start: 3, End: 9,
			Accesses: []Access{{Object: "_nextSlot", Kind: Write, At: 5, Locks: []string{"pool"}}},
			Return:   IntValue(7),
		}},
	}
	s.Add(e)
	s.Add(Execution{ID: "run-2", Seed: 43, Outcome: Success})

	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestCodecFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "traces.jsonl")
	s := &Set{}
	s.Add(Execution{ID: "a", Outcome: Success})
	if err := WriteFile(path, s); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(got.Executions) != 1 || got.Executions[0].ID != "a" {
		t.Fatalf("ReadFile = %+v", got)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Fatal("ReadFile(missing) succeeded")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := Decode(bytes.NewBufferString("{not json")); err == nil {
		t.Fatal("Decode of corrupt input succeeded")
	}
}

// TestDecodeDiagnostics table-tests the codec's bad-input behavior:
// errors name the offending 1-based line (and the file, via ReadFile),
// blank lines are tolerated, and an empty stream decodes to an empty
// set (the caller decides whether that is an error).
func TestDecodeDiagnostics(t *testing.T) {
	valid := `{"id":"a","outcome":1}`
	cases := []struct {
		name    string
		input   string
		wantErr string // substring; "" = no error
		wantLen int
	}{
		{"empty stream", "", "", 0},
		{"whitespace only", "\n  \n\t\n", "", 0},
		{"valid single", valid + "\n", "", 1},
		{"blank lines between records", valid + "\n\n" + valid + "\n", "", 2},
		{"no trailing newline", valid, "", 1},
		{"non-JSON first line", "not json at all\n", "line 1", 0},
		{"truncated record", valid + "\n" + `{"id":"b","outc`, "line 2", 0},
		{"JSON scalar instead of object", valid + "\n42\ntrue\n", "line 2", 0},
		{"wrong JSON shape", `{"id":["not","a","string"]}`, "line 1", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Decode(bytes.NewBufferString(tc.input))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Decode: %v", err)
				}
				if len(got.Executions) != tc.wantLen {
					t.Fatalf("decoded %d executions, want %d", len(got.Executions), tc.wantLen)
				}
				return
			}
			if err == nil {
				t.Fatalf("Decode succeeded, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending line (%q)", err, tc.wantErr)
			}
		})
	}
}

// TestReadFileNamesFileAndLine checks file-level diagnostics.
func TestReadFileNamesFileAndLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte(`{"id":"a","outcome":1}`+"\ngarbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFile(path)
	if err == nil {
		t.Fatal("ReadFile of corrupt corpus succeeded")
	}
	if !strings.Contains(err.Error(), path+":2") {
		t.Fatalf("error %q does not name file and line %q", err, path+":2")
	}
}
