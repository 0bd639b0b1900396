package predicate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The corpus encoding is a single JSON document holding the predicate
// definitions (including repair recipes) and the per-execution logs. The
// extraction differential (internal/oracle/extractref) compares corpora
// by it, byte for byte.

type corpusFile struct {
	Preds []Predicate   `json:"predicates"`
	Logs  []execLogFile `json:"logs"`
}

type execLogFile struct {
	ExecID string            `json:"execId"`
	Failed bool              `json:"failed"`
	Occ    map[ID]Occurrence `json:"occurrences"`
}

// Encode writes the corpus as JSON. Rows are materialized back to the
// row-oriented edge form (ID-keyed occurrence maps) in one
// column-major pass — O(total occurrences), not O(rows × predicates) —
// so the encoding does not depend on the columnar in-memory layout.
func (c *Corpus) Encode(w io.Writer) error {
	f := corpusFile{Preds: c.Preds}
	occs := make([]map[ID]Occurrence, c.NumLogs())
	for i := range occs {
		occs[i] = make(map[ID]Occurrence)
	}
	for h := 0; h < c.NumPreds(); h++ {
		id := c.Preds[h].ID
		c.ForEachOcc(Handle(h), func(row int, occ Occurrence) {
			occs[row][id] = occ
		})
	}
	for i := 0; i < c.NumLogs(); i++ {
		l := c.Log(i)
		f.Logs = append(f.Logs, execLogFile{
			ExecID: l.ExecID(),
			Failed: l.Failed(),
			Occ:    occs[i],
		})
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(&f); err != nil {
		return fmt.Errorf("predicate: encode corpus: %w", err)
	}
	return bw.Flush()
}
