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

func TestValueEqualAndString(t *testing.T) {
	five, six, zero, void := Value{Int: 5}, Value{Int: 6}, Value{}, Value{Void: true}
	if !five.Equal(five) {
		t.Error("5 != 5")
	}
	if five.Equal(six) {
		t.Error("5 == 6")
	}
	if zero.Equal(void) {
		t.Error("0 == void")
	}
	if got := void.String(); got != "void" {
		t.Errorf("void.String() = %q", got)
	}
	if got := (Value{Int: -3}).String(); got != "-3" {
		t.Errorf("Value{Int: -3}.String() = %q", got)
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

func TestExecutionQueries(t *testing.T) {
	e := Execution{Calls: []MethodCall{
		span("A", 1, 0, 10),
		span("B", 2, 5, 8),
		span("A", 1, 20, 30),
	}}
	e.Calls[2].Instance = 1
	if c := e.Call("A", 1); c == nil || c.Start != 20 {
		t.Fatalf("Call(A,1) = %+v, want span starting at 20", c)
	}
	if c := e.Call("C", 0); c != nil {
		t.Fatalf("Call(C,0) = %+v, want nil", c)
	}
}

func TestSetOutcomesAndSignatures(t *testing.T) {
	s := &Set{Executions: []Execution{
		{ID: "s1", Outcome: Success},
		{ID: "f1", Outcome: Failure, FailureSig: "crash@Foo"},
		{ID: "f2", Outcome: Failure, FailureSig: "hang@Bar"},
		{ID: "f3", Outcome: Failure, FailureSig: "crash@Foo"},
	}}

	succ, fail := s.Counts()
	if succ != 1 || fail != 3 {
		t.Fatalf("Counts = (%d,%d), want (1,3)", succ, fail)
	}
	if got := len(s.Successes()); got != 1 {
		t.Fatalf("Successes = %d", got)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	s := &Set{Executions: []Execution{{
		ID: "run-1", Seed: 42, Outcome: Failure, FailureSig: "crash",
		Calls: []MethodCall{{
			Method: "GetOrAdd", Thread: 2, Start: 3, End: 9,
			Accesses: []Access{{Object: "_nextSlot", Kind: Write, At: 5, Locks: []string{"pool"}}},
			Return:   Value{Int: 7},
		}},
	}, {ID: "run-2", Seed: 43, Outcome: Success}}}

	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeLogs(&buf, "")
	if err != nil {
		t.Fatalf("DecodeLogs: %v", err)
	}
	if !reflect.DeepEqual(got, Intern(s)) {
		t.Fatalf("decoded logs differ from the interned set:\n got %+v\nwant %+v", got, Intern(s))
	}
	if !reflect.DeepEqual(got.Set(), s) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Set(), s)
	}
}

func TestCodecFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "traces.jsonl")
	s := &Set{Executions: []Execution{{ID: "a", Outcome: Success}}}
	if err := WriteFile(path, Intern(s)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(got.Runs) != 1 || got.Runs[0].ID != "a" {
		t.Fatalf("ReadFile = %+v", got)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Fatal("ReadFile(missing) succeeded")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := DecodeLogs(bytes.NewBufferString("{not json"), ""); err == nil {
		t.Fatal("DecodeLogs of corrupt input succeeded")
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
			got, err := DecodeLogs(bytes.NewBufferString(tc.input), "")
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("DecodeLogs: %v", err)
				}
				if len(got.Runs) != tc.wantLen {
					t.Fatalf("decoded %d executions, want %d", len(got.Runs), tc.wantLen)
				}
				return
			}
			if err == nil {
				t.Fatalf("DecodeLogs succeeded, want error containing %q", tc.wantErr)
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
