// Package statdebug implements statistical debugging (SD) over predicate
// logs: it scores predicates by precision and recall against the failure
// and selects the discriminative ones.
//
// SD is both the first stage of AID's pipeline (AID consumes SD's
// fully-discriminative predicates, §3.1) and the baseline it improves
// on: SD alone reports many correlated predicates without separating
// causal ones or explaining the failure (Fig. 7, column 3).
//
// The corpus is columnar (see package predicate): per-predicate
// occurrence counts are maintained incrementally on ingest, so scoring
// reads O(1) counters per predicate instead of scanning logs, and the
// conjunction test behind compound generation is one word-parallel
// bitmap comparison per candidate pair. Appending an execution row
// (Corpus.AddLog) keeps every score current in O(predicates-touched) —
// the incremental-view-maintenance framing: rank-as-you-ingest needs no
// batch recompute.
package statdebug

import (
	"sort"

	"aid/internal/bitvec"
	"aid/internal/predicate"
)

// Score is the SD ranking record of one predicate.
type Score struct {
	Pred predicate.ID
	// Precision = #failed executions where P occurs / #executions where
	// P occurs.
	Precision float64
	// Recall = #failed executions where P occurs / #failed executions.
	Recall float64
	// F1 is the harmonic mean of precision and recall.
	F1 float64
	// Occurrences and FailedOccurrences are the raw counts.
	Occurrences       int
	FailedOccurrences int
}

// fullyDiscriminative reports 100% precision and recall.
func (s Score) fullyDiscriminative() bool {
	return s.Precision == 1 && s.Recall == 1
}

// scoreAt builds one predicate's score from the corpus's maintained
// counters — O(1).
func scoreAt(c *predicate.Corpus, h predicate.Handle, failed int) Score {
	occ, inFail := c.CountsAt(h)
	s := Score{Pred: c.PredAt(h).ID, Occurrences: occ, FailedOccurrences: inFail}
	if occ > 0 {
		s.Precision = float64(inFail) / float64(occ)
	}
	if failed > 0 {
		s.Recall = float64(inFail) / float64(failed)
	}
	if s.Precision+s.Recall > 0 {
		s.F1 = 2 * s.Precision * s.Recall / (s.Precision + s.Recall)
	}
	return s
}

// Scores computes precision and recall for every predicate in the
// corpus, sorted by F1 (descending), then precision, then ID for
// stability. Corpora with no failed executions yield zero recall
// everywhere. Counts are maintained on ingest, so this is
// O(P log P) for the sort alone — no log scan.
func Scores(c *predicate.Corpus) []Score {
	failed := c.FailedCount()
	out := make([]Score, 0, c.NumPreds())
	for h := 0; h < c.NumPreds(); h++ {
		out = append(out, scoreAt(c, predicate.Handle(h), failed))
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

// fullyAt reports whether the predicate occurs in every failed row and
// no successful one, straight from the counters.
func fullyAt(c *predicate.Corpus, h predicate.Handle) bool {
	occ, inFail := c.CountsAt(h)
	return occ > 0 && occ == inFail && inFail == c.FailedCount()
}

// FullyDiscriminative returns predicates that occur in every failed
// execution and in no successful one (100% precision and recall) —
// AID's working set. The failure predicate is excluded.
//
// AID targets counterfactual causes, so it also excludes program
// invariants: a predicate that occurs in every execution regardless of
// outcome has precision < 1 whenever successes exist and is filtered
// naturally; with zero successes in the corpus nothing is trustworthy
// and the result is empty.
func FullyDiscriminative(c *predicate.Corpus) []predicate.ID {
	if c.NumLogs()-c.FailedCount() == 0 || c.FailedCount() == 0 {
		return nil
	}
	var out []predicate.ID
	for h := 0; h < c.NumPreds(); h++ {
		p := c.PredAt(predicate.Handle(h))
		if p.ID == predicate.FailureID {
			continue
		}
		if fullyAt(c, predicate.Handle(h)) {
			out = append(out, p.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GenerateCompounds finds pairs of partially-discriminative predicates
// whose conjunction is fully discriminative, materializes them in the
// corpus, and returns the new predicates. This is the paper's modeling
// of nondeterministic root causes ("A and B in conjunction cause the
// failure", §3.2): neither conjunct reaches 100% precision alone, but
// the compound does.
//
// The pair test is one word-parallel bitmap comparison: a conjunction
// is fully discriminative iff the AND of the two occurrence bitmaps
// equals the failed-row bitmap exactly (every failed row has both, no
// successful row has both).
//
// maxCompounds caps the number generated (0 = unlimited).
func GenerateCompounds(c *predicate.Corpus, maxCompounds int) []predicate.Predicate {
	failed := c.FailedCount()
	var candidates []predicate.ID
	for h := 0; h < c.NumPreds(); h++ {
		p := c.PredAt(predicate.Handle(h))
		// Candidates correlate with failure but are not fully
		// discriminative on their own.
		if p.ID == predicate.FailureID {
			continue
		}
		s := scoreAt(c, predicate.Handle(h), failed)
		if s.fullyDiscriminative() || s.FailedOccurrences == 0 {
			continue
		}
		candidates = append(candidates, p.ID)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })

	failMask := c.FailedMask()
	var out []predicate.Predicate
	for i := 0; i < len(candidates); i++ {
		for j := i + 1; j < len(candidates); j++ {
			if maxCompounds > 0 && len(out) >= maxCompounds {
				return out
			}
			a, b := candidates[i], candidates[j]
			ha, _ := c.HandleOf(a)
			hb, _ := c.HandleOf(b)
			if !bitvec.AndEquals(c.Rows(ha), c.Rows(hb), failMask) {
				continue
			}
			comp, err := c.CompoundAnd(a, b)
			if err != nil {
				continue
			}
			if c.Pred(comp.ID) != nil {
				continue
			}
			c.MaterializeCompound(comp)
			out = append(out, comp)
		}
	}
	return out
}
