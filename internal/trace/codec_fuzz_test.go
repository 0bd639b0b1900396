// Differential fuzzing of the JSON-lines corpus codec against the
// reflective encoding/json codec kept in internal/oracle/tracejson. On
// every input, DecodeLogs must give the oracle's verdict, failing on
// the same line, and on success the LogSet trace.Intern builds from
// the oracle's set; EncodeLogs must write the oracle's bytes for it.
// The seeds start the mutation space at real execution records (the
// six case studies' corpora) and at each corner of encoding/json's
// rules the reader reproduces.
//
// The external test package breaks the would-be import cycle
// (casestudy and the oracle import trace).
package trace_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"aid/internal/casestudy"
	"aid/internal/oracle/tracejson"
	"aid/internal/sim"
	"aid/internal/trace"
)

// seedCorpora encodes two executions of every case study (one line
// each), assorted malformed corpora, the records of oracleCases short
// enough for the mutator, and each study's 3+3 corpus.
func seedCorpora(f *testing.F) {
	for _, s := range casestudy.All() {
		pp, err := sim.Prepare(s.Program, nil)
		if err != nil {
			f.Fatal(err)
		}
		syms, err := s.Program.Symbols()
		if err != nil {
			f.Fatal(err)
		}
		var set trace.Set
		for seed := int64(1); seed <= 2; seed++ {
			run, _ := pp.RunIf(seed, s.MaxSteps, nil)
			set.Executions = append(set.Executions, run.Execution(&syms))
		}
		var buf bytes.Buffer
		if err := tracejson.Encode(&buf, &set); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add("")                         // empty corpus
	f.Add("\n\n\n")                   // blank lines only
	f.Add("{")                        // truncated record
	f.Add("{\"id\":\"x\"}\nnot-json") // valid line then garbage
	f.Add("null\n")                   // JSON null record
	f.Add("[1,2,3]\n")                // wrong JSON shape
	f.Add("{\"id\":\"x\",\"outcome\":99,\"calls\":[{\"start\":-5,\"end\":-9}]}\n")
	// What the log form holds beside its records: empty and null calls,
	// injected calls, and access kinds that are neither read nor write.
	f.Add("{\"id\":\"a\",\"calls\":[]}\n{\"id\":\"b\",\"calls\":null}\n")
	f.Add("{\"id\":\"c\",\"calls\":[{\"method\":\"M\",\"injected\":true,\"accesses\":[{\"object\":\"o\",\"kind\":7},{\"object\":\"o\",\"kind\":-1,\"locks\":[\"a\",\"a\"]}]},{\"method\":\"M\",\"instance\":4000000000}]}\n")
	for _, c := range oracleCases {
		if len(c.input) <= 1<<10 {
			f.Add(c.input)
		}
	}
	for _, s := range casestudy.All() {
		logs, _, err := casestudy.Collect(f.Context(), s, casestudy.CollectConfig{Successes: 3, Failures: 3, SeedCap: 20000})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tracejson.Encode(&buf, logs.Set()); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
}

func FuzzDecode(f *testing.F) {
	seedCorpora(f)
	f.Fuzz(func(t *testing.T, input string) {
		matchOracle(t, []byte(input))
	})
}

// matchOracle decodes input with DecodeLogs and with the oracle and
// fails unless both accept it, to the same logs and the same bytes
// written back, or both reject it on the same line. It reports whether
// the input was accepted.
func matchOracle(t *testing.T, input []byte) bool {
	t.Helper()
	want, werr := tracejson.Decode(bytes.NewReader(input))
	got, gerr := trace.DecodeLogs(bytes.NewReader(input), "")
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("verdicts differ on %q:\noracle: %v\nreader: %v", clip(input), werr, gerr)
	}
	if werr != nil {
		if w, g := errLine(werr), errLine(gerr); w != g || !strings.HasPrefix(g, "trace: line ") {
			t.Fatalf("failing lines differ on %q:\noracle: %v\nreader: %v", clip(input), werr, gerr)
		}
		return false
	}
	if logs := trace.Intern(want); !reflect.DeepEqual(got, logs) || got.Bytes() != logs.Bytes() {
		t.Fatalf("decoded logs differ from the interned oracle set on %q:\nreader: %+v\noracle: %+v", clip(input), got, logs)
	}
	var enc, ref bytes.Buffer
	if err := trace.EncodeLogs(&enc, got); err != nil {
		t.Fatal(err)
	}
	if err := tracejson.Encode(&ref, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), ref.Bytes()) {
		t.Fatalf("written bytes differ on %q:\nwriter: %q\noracle: %q", clip(input), clip(enc.Bytes()), clip(ref.Bytes()))
	}
	return true
}

// errLine returns an error's "trace: line <n>:" prefix.
func errLine(err error) string {
	parts := strings.SplitN(err.Error(), ": ", 3)
	if len(parts) < 2 {
		return err.Error()
	}
	return parts[0] + ": " + parts[1] + ":"
}

// clip shortens an input for a failure message.
func clip(b []byte) []byte {
	if len(b) > 300 {
		return b[:300]
	}
	return b
}
