package predicate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The on-disk corpus format is a single JSON document holding the
// predicate definitions (including repair recipes) and the per-execution
// logs, so a corpus collected on one machine can be debugged offline —
// the paper's separation of logging from analysis.

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
// so the columnar in-memory layout never leaks to disk and the format
// is unchanged.
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

// DecodeCorpus reads a corpus written by Encode, streaming each log
// into the columnar store.
func DecodeCorpus(r io.Reader) (*Corpus, error) {
	var f corpusFile
	if err := json.NewDecoder(bufio.NewReader(r)).Decode(&f); err != nil {
		return nil, fmt.Errorf("predicate: decode corpus: %w", err)
	}
	c := NewCorpus()
	for _, p := range f.Preds {
		c.AddPred(p)
	}
	for _, l := range f.Logs {
		for id := range l.Occ {
			if c.Pred(id) == nil {
				return nil, fmt.Errorf("predicate: log %q references unknown predicate %q", l.ExecID, id)
			}
		}
		c.AddLog(l.ExecID, l.Failed, l.Occ)
	}
	return c, nil
}
