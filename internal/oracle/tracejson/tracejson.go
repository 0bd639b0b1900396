// Package tracejson preserves the reflective JSON-lines trace codec as
// an executable oracle for trace.DecodeLogs and trace.EncodeLogs, which
// read and write log form by hand. encoding/json defines the format:
// the contract is that the hand-written reader gives every input the
// verdict Decode gives it, failing on the same line, and on success the
// LogSet trace.Intern builds from Decode's set; and that the writer
// emits Encode's bytes. Do not "optimize" it: its independence from the
// hand-written codec is the point. Only tests import it.
package tracejson

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"aid/internal/trace"
)

// Encode writes the execution set as a stream of JSON lines (one
// execution per line) through encoding/json.
func Encode(w io.Writer, s *trace.Set) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range s.Executions {
		if err := enc.Encode(&s.Executions[i]); err != nil {
			return fmt.Errorf("trace: encode execution %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// maxRecordBytes bounds one execution record's encoded size (64 MiB),
// as trace.DecodeLogs does.
const maxRecordBytes = 64 * 1024 * 1024

// Decode reads a JSON-lines execution stream through encoding/json.
// Errors name the 1-based line the malformed or truncated record sits
// on: "trace: line <line>: ...". Blank lines (bytes.TrimSpace) are
// skipped; each record must sit on one line no longer than
// maxRecordBytes.
func Decode(r io.Reader) (*trace.Set, error) {
	at := func(line int) string { return fmt.Sprintf("line %d", line) }
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxRecordBytes)
	s := &trace.Set{}
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var e trace.Execution
		if err := json.Unmarshal(raw, &e); err != nil {
			// A read error makes the scanner emit whatever it buffered
			// as a final (possibly truncated) token; the root cause is
			// the reader's failure, not the record.
			if rerr := sc.Err(); rerr != nil {
				return nil, fmt.Errorf("trace: %s: %w", at(line), rerr)
			}
			return nil, fmt.Errorf("trace: %s: malformed execution record: %w", at(line), err)
		}
		s.Executions = append(s.Executions, e)
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return nil, fmt.Errorf("trace: %s: execution record exceeds the %d MiB line limit (corpus not in one-record-per-line form?)", at(line+1), maxRecordBytes>>20)
		}
		return nil, fmt.Errorf("trace: %s: %w", at(line+1), err)
	}
	return s, nil
}
