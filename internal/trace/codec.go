package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
)

// The corpus codec reads and writes JSON lines, one execution record
// per line, in the schema encoding/json gives Execution: the on-disk
// format of trace files, uploads and stored corpora. It works on log
// form directly, with no reflection and no Execution in between.
// encoding/json stays the definition: the test-only oracle
// internal/oracle/tracejson keeps the reflective codec, and the
// differential tests hold this one to its verdicts and bytes.

// maxRecordBytes bounds one execution record's encoded size (64 MiB —
// far above any corpus the simulator produces).
const maxRecordBytes = 64 * 1024 * 1024

// DecodeLogs reads a JSON-lines corpus into log form. It accepts what
// encoding/json accepts into an Execution, line by line, and the
// LogSet it returns is the one Intern builds from those executions.
//
// Errors are diagnostic: they name the 1-based line the malformed or
// truncated record sits on, "trace: <name>:<line>: ..." (or "trace:
// line <line>: ..." when name is empty), so a bad corpus fails at load
// time instead of surfacing as a zero-trace failure deeper in the
// pipeline. Blank lines are tolerated (trailing newlines are common in
// hand-edited corpora); each record must sit on one line no longer
// than maxRecordBytes. A read error is returned wrapped, so a
// size-capped HTTP ingest can tell "too large" from "malformed".
func DecodeLogs(r io.Reader, name string) (*LogSet, error) {
	at := func(line int) string {
		if name == "" {
			return fmt.Sprintf("line %d", line)
		}
		return fmt.Sprintf("%s:%d", name, line)
	}
	sc := bufio.NewScanner(r)
	// Execution records carry full span logs; one line can far exceed
	// bufio.Scanner's 64 KiB default.
	sc.Buffer(make([]byte, 0, 64*1024), maxRecordBytes)
	d := newDecoder()
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		if err := d.record(raw); err != nil {
			// A read error makes the scanner emit whatever it buffered as
			// a final (possibly truncated) token; the root cause is the
			// reader's failure, not the record.
			if rerr := sc.Err(); rerr != nil {
				return nil, fmt.Errorf("trace: %s: %w", at(line), rerr)
			}
			return nil, fmt.Errorf("trace: %s: malformed execution record: %w", at(line), err)
		}
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return nil, fmt.Errorf("trace: %s: execution record exceeds the %d MiB line limit (corpus not in one-record-per-line form?)", at(line+1), maxRecordBytes>>20)
		}
		return nil, fmt.Errorf("trace: %s: %w", at(line+1), err)
	}
	return d.logSet(), nil
}

// Encode writes the execution set as JSON lines: EncodeLogs over the
// set in log form, which writes the set's own bytes.
func Encode(w io.Writer, s *Set) error { return EncodeLogs(w, Intern(s)) }

// ReadFile loads a corpus file in log form. Errors name the file and
// the offending line: "trace: <path>:<line>: ...".
func ReadFile(path string) (*LogSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	return DecodeLogs(f, path)
}

// WriteFile saves the corpus to path.
func WriteFile(path string, ls *LogSet) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	if err := EncodeLogs(f, ls); err != nil {
		return err
	}
	return f.Close()
}
