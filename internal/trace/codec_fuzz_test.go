// Fuzz coverage for the JSON-lines trace codec, seeded from the six
// case-study corpora so the mutation space starts at real execution
// records. The target locks in the line-diagnostic error contract of
// the PR 3 decoder: Decode either succeeds — in which case the decoded
// set must re-encode and re-decode to the same corpus, and encode the
// same after interning into log form and back — or fails with
// an error that names the offending line; it must never panic.
//
// The external test package breaks the would-be import cycle
// (casestudy imports trace).
package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"aid/internal/casestudy"
	"aid/internal/sim"
	"aid/internal/trace"
)

// seedCorpora encodes two executions of every case study (one line
// each) plus assorted malformed corpora.
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
		if err := trace.Encode(&buf, &set); err != nil {
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
}

func FuzzDecode(f *testing.F) {
	seedCorpora(f)
	f.Fuzz(func(t *testing.T, input string) {
		set, err := trace.Decode(strings.NewReader(input))
		if err != nil {
			// The diagnostic contract: errors are attributed to the
			// trace layer and name the offending line.
			msg := err.Error()
			if !strings.HasPrefix(msg, "trace: ") {
				t.Fatalf("error not attributed to the codec: %q", msg)
			}
			if !strings.Contains(msg, "line ") {
				t.Fatalf("error lacks a line diagnostic: %q", msg)
			}
			return
		}
		// Success: the decoded set must survive an encode/decode round
		// trip with identical structure, and interning into log form and
		// back must encode byte-identically.
		var buf, interned bytes.Buffer
		if err := trace.Encode(&buf, set); err != nil {
			t.Fatalf("re-encode of decoded corpus failed: %v", err)
		}
		if err := trace.Encode(&interned, trace.Intern(set).Set()); err != nil {
			t.Fatalf("encode of the interned corpus failed: %v", err)
		}
		if !bytes.Equal(interned.Bytes(), buf.Bytes()) {
			t.Fatalf("interning changed the corpus:\n%s\nbecame\n%s", buf.Bytes(), interned.Bytes())
		}
		again, err := trace.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of re-encoded corpus failed: %v", err)
		}
		if len(again.Executions) != len(set.Executions) {
			t.Fatalf("round trip changed execution count: %d -> %d",
				len(set.Executions), len(again.Executions))
		}
		for i := range set.Executions {
			a, b := &set.Executions[i], &again.Executions[i]
			if a.ID != b.ID || a.Outcome != b.Outcome || len(a.Calls) != len(b.Calls) {
				t.Fatalf("round trip changed execution %d", i)
			}
		}
	})
}
