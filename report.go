package aid

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Report is the stable, JSON-serializable outcome of one pipeline run:
// the causal path, the explanation, and the intervention log, plus the
// counts of the paper's Fig. 7. It is one row of Fig. 7 only when the
// run measured the TAGT baseline (WithBaseline, on by default); a
// report of a run without it leaves the two TAGT figures out of its
// JSON and its summary. It is the shared currency of the CLI (-json),
// the examples, and the daemon's report endpoint; predicate IDs are
// plain strings so consumers need no internal types.
type Report struct {
	// Study, Issue and Description identify the debugged application.
	Study       string `json:"study"`
	Issue       string `json:"issue,omitempty"`
	Description string `json:"description,omitempty"`

	// TotalPredicates counts everything extraction produced.
	TotalPredicates int `json:"totalPredicates"`
	// Discriminative is Fig. 7 column 3: fully-discriminative
	// predicates found by SD.
	Discriminative int `json:"discriminative"`
	// DAGNodes counts safely-intervenable candidates (plus F).
	DAGNodes int `json:"dagNodes"`
	// NoPathToF counts candidates discarded for lacking an AC-DAG path
	// to the failure.
	NoPathToF int `json:"noPathToF"`
	// CausalPathLen is Fig. 7 column 4 (predicates in the causal path,
	// excluding F).
	CausalPathLen int `json:"causalPathLen"`
	// AIDInterventions is Fig. 7 column 5.
	AIDInterventions int `json:"aidInterventions"`
	// TAGTInterventions is the measured TAGT cost on the same pool.
	TAGTInterventions int `json:"tagtInterventions"`
	// TAGTWorstCase is the paper's D·⌈log₂N⌉ worst case (Fig. 7 col 6).
	// Both TAGT keys are written whenever the baseline ran, zeros
	// included, and never when it did not.
	TAGTWorstCase int `json:"tagtWorstCase"`

	// RootCause is C0 ("" when no cause was confirmed).
	RootCause string `json:"rootCause"`
	// Path is the causal path C0, …, Cn with Cn = F.
	Path []string `json:"path"`
	// Explanation is the numbered human-readable causal chain.
	Explanation []string `json:"explanation"`
	// Narrative is the full §7.1-style account.
	Narrative string `json:"narrative"`
	// Rounds is the serializable intervention log.
	Rounds []ReportRound `json:"rounds"`
	// PruningS1 and PruningS2 are §6's empirical discard rates
	// (discarded per round / per confirmed cause).
	PruningS1 float64 `json:"pruningS1"`
	PruningS2 float64 `json:"pruningS2"`

	// Robustness accounts for the noise-tolerance layer's work when the
	// pipeline ran with WithNoiseTolerance; nil on deterministic runs,
	// which keeps their JSON byte-identical to earlier releases.
	Robustness *RobustnessReport `json:"robustness,omitempty"`

	// Result is the full in-memory discovery result for programmatic
	// consumers; it is not serialized.
	Result *Result `json:"-"`

	// noBaseline marks a report whose run skipped the TAGT baseline.
	// Only Run sets it, so the zero value means the baseline ran: a
	// hand-built or decoded report writes both TAGT keys.
	noBaseline bool
}

// reportFields is Report without its methods, so encoding/json writes
// its fields without calling MarshalJSON again.
type reportFields Report

// encoded is what encoding/json writes for the report: its fields in
// declaration order, without the two TAGT keys when the run skipped the
// baseline.
func (r *Report) encoded() any {
	if !r.noBaseline {
		return (*reportFields)(r)
	}
	// A field at the outer level hides the embedded field of the same
	// JSON name, and a nil pointer with omitempty writes nothing.
	return &struct {
		*reportFields
		TAGTInterventions *int `json:"tagtInterventions,omitempty"`
		TAGTWorstCase     *int `json:"tagtWorstCase,omitempty"`
	}{reportFields: (*reportFields)(r)}
}

// MarshalJSON encodes the report's fields, leaving out the two TAGT
// keys when the run skipped the baseline.
func (r Report) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.encoded())
}

// RobustnessReport is the serializable accounting of a noise-tolerant
// run: what the adaptive trial oracle, the contradiction repair, and
// the fault-contained replay layer spent and survived.
type RobustnessReport struct {
	// Trials counts underlying replay bundles that produced
	// observations; Retries counts transient-error retries on top.
	Trials  int `json:"trials"`
	Retries int `json:"retries"`
	// RecoveredPanics counts intervener panics recovered into retries.
	RecoveredPanics int `json:"recoveredPanics"`
	// SuspectRuns counts observations discarded as inconsistent with
	// the round's accepted verdict.
	SuspectRuns int `json:"suspectRuns"`
	// UndecidedRounds counts rounds that hit the trial cap without
	// reaching the confidence bound and fell back to majority vote.
	UndecidedRounds int `json:"undecidedRounds"`
	// Contradictions counts detected monotonicity violations; Repaired
	// counts those whose escalated retests restored consistency;
	// Escalated counts escalated retests run.
	Contradictions int `json:"contradictions"`
	Repaired       int `json:"repaired"`
	Escalated      int `json:"escalated"`
	// MissedRuns counts replays that produced no observation because
	// their (plan, seed) pair was quarantined after crashing or
	// exhausting its budget.
	MissedRuns int `json:"missedRuns"`
	// Quarantined lists the quarantined replays in detection order.
	Quarantined []ReportQuarantine `json:"quarantined,omitempty"`
	// CauseConfidence is the weakest per-round verdict posterior along
	// the run (0 when no round needed more than deterministic
	// evidence): the confidence of the final causal path is bounded by
	// its least-certain round.
	CauseConfidence float64 `json:"causeConfidence"`
}

// ReportQuarantine is one quarantined (plan, seed) replay.
type ReportQuarantine struct {
	// Group is the forced-predicate group whose plan crashed.
	Group []string `json:"group"`
	// Seed is the scheduler seed of the crashing replay.
	Seed int64 `json:"seed"`
	// Error describes the contained failure.
	Error string `json:"error"`
}

// FormatRobustness renders the robustness accounting block ("" for
// deterministic runs).
func (r *Report) FormatRobustness() string {
	rb := r.Robustness
	if rb == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trial oracle:    %d trials, %d retries, %d recovered panics, %d suspect runs, %d undecided rounds\n",
		rb.Trials, rb.Retries, rb.RecoveredPanics, rb.SuspectRuns, rb.UndecidedRounds)
	fmt.Fprintf(&b, "contradictions:  %d detected, %d repaired (%d escalated retests)\n",
		rb.Contradictions, rb.Repaired, rb.Escalated)
	fmt.Fprintf(&b, "quarantine:      %d replays quarantined, %d runs missed\n",
		len(rb.Quarantined), rb.MissedRuns)
	fmt.Fprintf(&b, "cause confidence: %.4f\n", rb.CauseConfidence)
	return b.String()
}

// ReportRound is one serializable intervention round.
type ReportRound struct {
	// Phase labels the round "branch" or "giwp".
	Phase string `json:"phase"`
	// Intervened lists the predicates forced in this round.
	Intervened []string `json:"intervened"`
	// Stopped reports whether the failure disappeared in every run.
	Stopped bool `json:"stopped"`
	// Confirmed is the predicate confirmed causal ("" if none).
	Confirmed string `json:"confirmed,omitempty"`
	// Pruned lists predicates marked spurious by this round.
	Pruned []string `json:"pruned,omitempty"`
}

// Detach returns a deep copy of the report that shares no slice
// storage with the original. The service's result cache copies through
// it, so no two sessions served from one cached report share mutable
// storage. Nil-ness of every slice is preserved, so the detached
// report's JSON is byte-identical to the original's. The unserialized
// Result pointer is shared, not copied: discovery results are
// immutable once returned.
func (r *Report) Detach() *Report {
	if r == nil {
		return nil
	}
	out := *r
	out.Path = append([]string(nil), r.Path...)
	out.Explanation = append([]string(nil), r.Explanation...)
	if r.Rounds != nil {
		out.Rounds = make([]ReportRound, len(r.Rounds))
		for i, rd := range r.Rounds {
			rd.Intervened = append([]string(nil), rd.Intervened...)
			rd.Pruned = append([]string(nil), rd.Pruned...)
			out.Rounds[i] = rd
		}
	}
	if r.Robustness != nil {
		rb := *r.Robustness
		if rb.Quarantined != nil {
			rb.Quarantined = make([]ReportQuarantine, len(r.Robustness.Quarantined))
			for i, q := range r.Robustness.Quarantined {
				q.Group = append([]string(nil), q.Group...)
				rb.Quarantined[i] = q
			}
		}
		out.Robustness = &rb
	}
	return &out
}

// JSON serializes the report with indentation (the -json CLI output).
// It encodes the fields itself: through MarshalJSON, encoding/json
// would scan the encoded bytes once more before indenting them.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r.encoded(), "", "  ")
}

// Format renders the human-readable summary block the CLI prints — the
// one shared formatting of a report (previously copy-pasted across
// cmd/aid and cmd/casestudies).
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "case study:      %s (%s)\n", r.Study, r.Issue)
	fmt.Fprintf(&b, "bug:             %s\n", r.Description)
	fmt.Fprintf(&b, "SD predicates:   %d fully discriminative (of %d extracted)\n",
		r.Discriminative, r.TotalPredicates)
	fmt.Fprintf(&b, "AC-DAG:          %d nodes, %d without a path to F\n", r.DAGNodes, r.NoPathToF)
	fmt.Fprintf(&b, "root cause:      %s\n", r.RootCause)
	fmt.Fprintf(&b, "causal path:     %d predicates\n", r.CausalPathLen)
	if r.noBaseline {
		fmt.Fprintf(&b, "interventions:   AID %d\n", r.AIDInterventions)
	} else {
		fmt.Fprintf(&b, "interventions:   AID %d, TAGT %d (worst-case bound %d)\n",
			r.AIDInterventions, r.TAGTInterventions, r.TAGTWorstCase)
	}
	fmt.Fprintf(&b, "pruning rates:   S1=%.1f discarded/round, S2=%.1f discarded/cause (§6)\n",
		r.PruningS1, r.PruningS2)
	return b.String()
}

// FormatFull renders the complete human-readable report: the summary
// block, the narrative, the intervention round log, and — for
// noise-tolerant runs — the robustness accounting. It is the one text
// rendering shared by the CLI's verbose output and the daemon's
// ?format=text report endpoint.
func (r *Report) FormatFull() string {
	var b strings.Builder
	b.WriteString(r.Format())
	b.WriteString("\n")
	b.WriteString(r.Narrative)
	b.WriteString("\n\nintervention rounds:\n")
	b.WriteString(r.FormatRounds())
	if rb := r.FormatRobustness(); rb != "" {
		b.WriteString("\nrobustness:\n")
		b.WriteString(rb)
	}
	return b.String()
}

// FormatRounds renders the intervention round log, one line per round.
func (r *Report) FormatRounds() string {
	var b strings.Builder
	for i, rd := range r.Rounds {
		verdict := "failure persisted"
		if rd.Stopped {
			verdict = "failure stopped"
		}
		fmt.Fprintf(&b, "  %2d [%s] intervene {%s} -> %s", i+1, rd.Phase,
			strings.Join(rd.Intervened, ", "), verdict)
		if rd.Confirmed != "" {
			fmt.Fprintf(&b, "; confirmed %s", rd.Confirmed)
		}
		if len(rd.Pruned) > 0 {
			fmt.Fprintf(&b, "; pruned {%s}", strings.Join(rd.Pruned, ", "))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatExplanation renders the numbered causal chain, one line per
// predicate.
func (r *Report) FormatExplanation() string {
	var b strings.Builder
	for _, line := range r.Explanation {
		fmt.Fprintln(&b, "  "+line)
	}
	return b.String()
}

// FormatFigure7 renders reports as the paper's Fig. 7 table, whose TAGT
// columns are measured only by runs with the baseline on. The Issue
// column is as wide as its widest label, header included.
func FormatFigure7(reports []*Report) string {
	issueW := len("Issue")
	for _, r := range reports {
		issueW = max(issueW, len(r.Issue))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-*s %12s %12s %8s %8s %10s\n",
		"Application", issueW, "Issue", "#Discrim(SD)", "#CausalPath", "AID", "TAGT", "TAGT-bound")
	for _, r := range reports {
		fmt.Fprintf(&b, "%-16s %-*s %12d %12d %8d %8d %10d\n",
			r.Study, issueW, r.Issue, r.Discriminative, r.CausalPathLen,
			r.AIDInterventions, r.TAGTInterventions, r.TAGTWorstCase)
	}
	return b.String()
}
