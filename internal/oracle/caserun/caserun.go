// Package caserun preserves the pre-facade case-study runner as an
// executable oracle for aid.Pipeline.Run. It composes the stages by
// hand (collect, extract, rank, AC-DAG, the full AID variant, the TAGT
// baseline) and answers TAGT's oracle from Intervene's observations,
// where Pipeline.Run asks the verdict-only Persists query.
// TestPipelineMatchesCaseStudyRun pins the two byte-identical (as
// report JSON) on the six case studies. Only tests import it.
package caserun

import (
	"context"
	"fmt"

	"aid/internal/acdag"
	"aid/internal/casestudy"
	"aid/internal/core"
	"aid/internal/explain"
	"aid/internal/grouptest"
	"aid/internal/inject"
	"aid/internal/predicate"
	"aid/internal/statdebug"
	"aid/internal/trace"
)

// The intervention phase runs at aid.New's defaults, the settings the
// facade pin compares: five failing seeds replayed per intervention
// and algorithm seed 1.
const (
	replaySeeds = 5
	algoSeed    = 1
)

// Report is one row of Fig. 7 plus the explanation.
type Report struct {
	Study       string
	Issue       string
	Description string

	// TotalPredicates counts everything extraction produced.
	TotalPredicates int
	// Discriminative is Fig. 7 column 3: fully-discriminative
	// predicates found by SD.
	Discriminative int
	// DAGNodes counts safely-intervenable candidates (plus F).
	DAGNodes int
	// NoPathToF counts candidates discarded for lacking an AC-DAG path
	// to the failure (the Kafka discard).
	NoPathToF int
	// CausalPathLen is Fig. 7 column 4 (predicates in the causal path,
	// excluding F).
	CausalPathLen int
	// AIDInterventions is Fig. 7 column 5.
	AIDInterventions int
	// TAGTInterventions is the measured TAGT cost on the same pool.
	TAGTInterventions int
	// TAGTWorstCase is the paper's reported D·⌈log₂N⌉ worst case
	// (Fig. 7 column 6).
	TAGTWorstCase int

	// Path is the discovered causal path ending at F.
	Path []predicate.ID
	// Explanation is the human-readable causal chain.
	Explanation []string
	// Narrative is the full §7.1-style account (package explain).
	Narrative string
	// AID is the full discovery result.
	AID *core.Result
}

// Run executes the full pipeline for one study on the corpus cc
// collects. Cancelling ctx aborts collection and intervention sweeps
// promptly with ctx's error.
func Run(ctx context.Context, s *casestudy.Study, cc casestudy.CollectConfig) (*Report, error) {
	logs, failSeeds, err := casestudy.Collect(ctx, s, cc)
	if err != nil {
		return nil, err
	}
	// The reference reads the interchange form, as a trace file's
	// pipeline does: extraction interns the materialized set again.
	set := logs.Set()
	cfg := s.Config()
	corpus := predicate.Extract(set, cfg)
	fully := statdebug.FullyDiscriminative(corpus)
	dag, _, err := acdag.Build(corpus, fully, acdag.BuildOptions{})
	if err != nil {
		return nil, fmt.Errorf("caserun %s: %w", s.Name, err)
	}

	replay := failSeeds
	if len(replay) > replaySeeds {
		replay = replay[:replaySeeds]
	}
	exec := &inject.Executor{
		Prog:       s.Program,
		Corpus:     corpus,
		Baselines:  baselineSuccesses(set),
		Seeds:      replay,
		Cfg:        cfg,
		FailureSig: s.FailureSig,
		MaxSteps:   s.MaxSteps,
		Workers:    cc.Workers,
	}

	aidRes, err := core.Discover(ctx, dag, exec, core.AIDOptions(algoSeed))
	if err != nil {
		return nil, fmt.Errorf("caserun %s: AID: %w", s.Name, err)
	}

	// TAGT runs on the same safely-intervenable candidate pool with the
	// same intervention oracle, but no DAG knowledge. The oracle reads
	// Intervene's full observations: it is the reference that
	// aid.Pipeline.Run's verdict-only Persists oracle is pinned to.
	var pool []predicate.ID
	noPath := 0
	for _, id := range dag.Nodes() {
		if id == predicate.FailureID {
			continue
		}
		pool = append(pool, id)
		if !dag.Precedes(id, predicate.FailureID) {
			noPath++
		}
	}
	oracle := func(group []predicate.ID) (bool, error) {
		obs, err := exec.Intervene(ctx, group)
		if err != nil {
			return false, err
		}
		for _, o := range obs {
			if o.Failed {
				return false, nil
			}
		}
		return true, nil
	}
	tagtRes, err := grouptest.Adaptive(pool, oracle, algoSeed)
	if err != nil {
		return nil, fmt.Errorf("caserun %s: TAGT: %w", s.Name, err)
	}

	pathLen := len(aidRes.Path) - 1 // excluding F
	report := &Report{
		Study:             s.Name,
		Issue:             s.Issue,
		Description:       s.Description,
		TotalPredicates:   len(corpus.Preds),
		Discriminative:    len(fully),
		DAGNodes:          dag.Len(),
		NoPathToF:         noPath,
		CausalPathLen:     pathLen,
		AIDInterventions:  aidRes.Interventions(),
		TAGTInterventions: tagtRes.Tests,
		TAGTWorstCase:     grouptest.UpperBound(len(pool), pathLen),
		Path:              aidRes.Path,
		AID:               aidRes,
	}
	for i, id := range aidRes.Path {
		desc := string(id)
		if p := corpus.Pred(id); p != nil {
			desc = p.String()
		}
		report.Explanation = append(report.Explanation, fmt.Sprintf("(%d) %s", i+1, desc))
	}
	report.Narrative = explain.Build(corpus, aidRes).String()
	return report, nil
}

func baselineSuccesses(set *trace.Set) []trace.Execution {
	var out []trace.Execution
	for i := range set.Executions {
		if !set.Executions[i].Failed() {
			out = append(out, set.Executions[i])
		}
	}
	return out
}
