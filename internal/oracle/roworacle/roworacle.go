// Package roworacle preserves the pre-columnar row-oriented corpus
// implementation as an executable oracle. The columnar refactor's
// contract is "same answers, different layout": the equivalence
// property tests pin the columnar Scores/Discriminative/
// GenerateCompounds/Build outputs byte-identical (as JSON) to this
// package on randomized corpora, and the corpus-scaling benchmark uses
// it as the row-path baseline its speedups are measured against.
//
// Everything here is intentionally the old shape: logs are a slice of
// ID-keyed occurrence maps, counts re-scan the logs on every query, and
// pairwise tests probe maps per (pair, log). Do not "optimize" it —
// its cost model is the point. Only tests import it.
package roworacle

import (
	"sort"

	"aid/internal/acdag"
	"aid/internal/predicate"
	"aid/internal/statdebug"
)

// Log is one execution's row-oriented predicate log.
type Log struct {
	ExecID string
	Failed bool
	Occ    map[predicate.ID]predicate.Occurrence
}

// Has reports whether the predicate occurred in this execution.
func (l *Log) Has(id predicate.ID) bool {
	_, ok := l.Occ[id]
	return ok
}

// Corpus is the row-oriented predicate corpus: a predicate table plus
// one occurrence map per execution.
type Corpus struct {
	Preds []predicate.Predicate
	Logs  []Log
	byID  map[predicate.ID]int
}

// NewCorpus returns an empty row corpus.
func NewCorpus() *Corpus {
	return &Corpus{byID: make(map[predicate.ID]int)}
}

// AddPred registers a predicate; re-adding an existing ID is a no-op.
func (c *Corpus) AddPred(p predicate.Predicate) {
	if _, ok := c.byID[p.ID]; ok {
		return
	}
	c.byID[p.ID] = len(c.Preds)
	c.Preds = append(c.Preds, p)
}

// AddLog appends one execution's log.
func (c *Corpus) AddLog(execID string, failed bool, occ map[predicate.ID]predicate.Occurrence) {
	if occ == nil {
		occ = make(map[predicate.ID]predicate.Occurrence)
	}
	c.Logs = append(c.Logs, Log{ExecID: execID, Failed: failed, Occ: occ})
}

// Pred returns the predicate with the given ID, or nil.
func (c *Corpus) Pred(id predicate.ID) *predicate.Predicate {
	i, ok := c.byID[id]
	if !ok {
		return nil
	}
	return &c.Preds[i]
}

// FromColumnar materializes a columnar corpus back into row form, so
// both representations can be queried over identical data.
func FromColumnar(src *predicate.Corpus) *Corpus {
	c := NewCorpus()
	for i := range src.Preds {
		c.AddPred(src.Preds[i])
	}
	for i := 0; i < src.NumLogs(); i++ {
		l := src.Log(i)
		c.AddLog(l.ExecID(), l.Failed(), l.OccMap())
	}
	return c
}

// Counts scans every log for the predicate — the old O(logs) query the
// columnar corpus replaces with maintained counters.
func (c *Corpus) Counts(id predicate.ID) (occurred, occurredInFailed, failed int) {
	for i := range c.Logs {
		l := &c.Logs[i]
		if l.Failed {
			failed++
		}
		if l.Has(id) {
			occurred++
			if l.Failed {
				occurredInFailed++
			}
		}
	}
	return
}

// FailedLogs allocates a fresh slice of failed-log pointers per call,
// as the row corpus did.
func (c *Corpus) FailedLogs() []*Log {
	var out []*Log
	for i := range c.Logs {
		if c.Logs[i].Failed {
			out = append(out, &c.Logs[i])
		}
	}
	return out
}

// SuccessLogs allocates a fresh slice of success-log pointers per call.
func (c *Corpus) SuccessLogs() []*Log {
	var out []*Log
	for i := range c.Logs {
		if !c.Logs[i].Failed {
			out = append(out, &c.Logs[i])
		}
	}
	return out
}

// Scores is the row-path SD ranking: one full log scan per predicate.
// It returns statdebug.Score records so oracle and columnar outputs
// compare byte-identical as JSON.
func Scores(c *Corpus) []statdebug.Score {
	out := make([]statdebug.Score, 0, len(c.Preds))
	for i := range c.Preds {
		id := c.Preds[i].ID
		occ, inFail, failed := c.Counts(id)
		s := statdebug.Score{Pred: id, Occurrences: occ, FailedOccurrences: inFail}
		if occ > 0 {
			s.Precision = float64(inFail) / float64(occ)
		}
		if failed > 0 {
			s.Recall = float64(inFail) / float64(failed)
		}
		if s.Precision+s.Recall > 0 {
			s.F1 = 2 * s.Precision * s.Recall / (s.Precision + s.Recall)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].F1 != out[j].F1 {
			return out[i].F1 > out[j].F1
		}
		if out[i].Precision != out[j].Precision {
			return out[i].Precision > out[j].Precision
		}
		return out[i].Pred < out[j].Pred
	})
	return out
}

// FullyDiscriminative mirrors statdebug.FullyDiscriminative on the row
// path (including its per-call partition allocations).
func FullyDiscriminative(c *Corpus) []predicate.ID {
	succ := len(c.SuccessLogs())
	fail := len(c.FailedLogs())
	if succ == 0 || fail == 0 {
		return nil
	}
	var out []predicate.ID
	for _, s := range Scores(c) {
		if s.Pred == predicate.FailureID {
			continue
		}
		if s.Precision == 1 && s.Recall == 1 {
			out = append(out, s.Pred)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GenerateCompounds mirrors statdebug.GenerateCompounds on the row
// path: the per-pair conjunction test probes every failed and
// successful log's occurrence map.
func GenerateCompounds(c *Corpus, maxCompounds int) []predicate.Predicate {
	scores := Scores(c)
	var candidates []predicate.ID
	for _, s := range scores {
		if s.Pred == predicate.FailureID || (s.Precision == 1 && s.Recall == 1) || s.FailedOccurrences == 0 {
			continue
		}
		candidates = append(candidates, s.Pred)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })

	fails := c.FailedLogs()
	succs := c.SuccessLogs()
	var out []predicate.Predicate
	for i := 0; i < len(candidates); i++ {
		for j := i + 1; j < len(candidates); j++ {
			if maxCompounds > 0 && len(out) >= maxCompounds {
				return out
			}
			a, b := candidates[i], candidates[j]
			if !conjunctionFullyDiscriminative(fails, succs, a, b) {
				continue
			}
			comp, err := compoundAnd(c, a, b)
			if err != nil {
				continue
			}
			if c.Pred(comp.ID) != nil {
				continue
			}
			materializeCompound(c, comp)
			out = append(out, comp)
		}
	}
	return out
}

func conjunctionFullyDiscriminative(fails, succs []*Log, a, b predicate.ID) bool {
	for _, l := range fails {
		if !l.Has(a) || !l.Has(b) {
			return false
		}
	}
	for _, l := range succs {
		if l.Has(a) && l.Has(b) {
			return false
		}
	}
	return true
}

// compoundAnd builds the conjunction predicate over the row corpus by
// delegating to the shared builder on a throwaway columnar corpus with
// the same predicate table (the predicate metadata, not the logs, is
// all the builder reads).
func compoundAnd(c *Corpus, members ...predicate.ID) (predicate.Predicate, error) {
	tmp := predicate.NewCorpus()
	for i := range c.Preds {
		tmp.AddPred(c.Preds[i])
	}
	return tmp.CompoundAnd(members...)
}

// materializeCompound fills the compound's occurrences row by row, as
// the old MaterializeCompound did.
func materializeCompound(c *Corpus, p predicate.Predicate) {
	c.AddPred(p)
	for i := range c.Logs {
		l := &c.Logs[i]
		var window predicate.Occurrence
		all := true
		for j, m := range p.Members {
			occ, ok := l.Occ[m]
			if !ok {
				all = false
				break
			}
			if j == 0 {
				window = occ
				continue
			}
			if occ.Start < window.Start {
				window.Start = occ.Start
			}
			if occ.End > window.End {
				window.End = occ.End
			}
		}
		if all {
			l.Occ[p.ID] = window
		}
	}
}

// Build runs the row-oriented AC-DAG construction (acdag.BuildRowOracle)
// over this corpus's failed logs.
func Build(c *Corpus, candidates []predicate.ID, opts acdag.BuildOptions) (*acdag.DAG, *acdag.BuildReport, error) {
	var failOcc []map[predicate.ID]predicate.Occurrence
	for i := range c.Logs {
		if c.Logs[i].Failed {
			failOcc = append(failOcc, c.Logs[i].Occ)
		}
	}
	return acdag.BuildRowOracle(c.Pred, failOcc, candidates, opts)
}
