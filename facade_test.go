package aid_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"aid"
	"aid/internal/casestudy"
	"aid/internal/oracle/caserun"
)

// legacyReport projects a pre-facade caserun.Report onto the public
// Report shape, field by field.
func legacyReport(rep *caserun.Report) *aid.Report {
	s1, s2 := rep.AID.PruningStats()
	out := &aid.Report{
		Study:             rep.Study,
		Issue:             rep.Issue,
		Description:       rep.Description,
		TotalPredicates:   rep.TotalPredicates,
		Discriminative:    rep.Discriminative,
		DAGNodes:          rep.DAGNodes,
		NoPathToF:         rep.NoPathToF,
		CausalPathLen:     rep.CausalPathLen,
		AIDInterventions:  rep.AIDInterventions,
		TAGTInterventions: rep.TAGTInterventions,
		TAGTWorstCase:     rep.TAGTWorstCase,
		RootCause:         string(rep.AID.RootCause()),
		Explanation:       rep.Explanation,
		Narrative:         rep.Narrative,
		PruningS1:         s1,
		PruningS2:         s2,
	}
	for _, id := range rep.Path {
		out.Path = append(out.Path, string(id))
	}
	for _, r := range rep.AID.Rounds {
		rr := aid.ReportRound{Phase: r.Phase, Stopped: r.Stopped, Confirmed: string(r.Confirmed)}
		for _, id := range r.Intervened {
			rr.Intervened = append(rr.Intervened, string(id))
		}
		for _, id := range r.Pruned {
			rr.Pruned = append(rr.Pruned, string(id))
		}
		out.Rounds = append(out.Rounds, rr)
	}
	return out
}

// TestPipelineMatchesCaseStudyRun pins the facade to the pre-refactor
// behavior: for every case study, aid.Pipeline.Run produces a report
// byte-identical (as JSON) to the pre-facade runner kept in
// internal/oracle/caserun under the same configuration. caserun.Run
// answers TAGT's oracle from Intervene's observations, the reference
// for Pipeline.Run's verdict-only Persists query.
func TestPipelineMatchesCaseStudyRun(t *testing.T) {
	ctx := context.Background()
	for _, s := range casestudy.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			want, err := caserun.Run(ctx, s, casestudy.CollectConfig{Successes: 30, Failures: 30, SeedCap: 4000})
			if err != nil {
				t.Fatal(err)
			}

			pipeline := aid.New(aid.WithCorpusSize(30, 30))
			got, err := pipeline.Run(ctx, aid.FromStudy(aid.CaseStudyByName(s.Name)))
			if err != nil {
				t.Fatal(err)
			}

			wantJSON, err := legacyReport(want).JSON()
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := got.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("facade report differs from caserun.Run:\n--- caserun.Run\n%s\n--- Pipeline.Run\n%s", wantJSON, gotJSON)
			}
		})
	}
}

// TestPipelineDeterministicAcrossWorkers checks the facade preserves
// the pool determinism contract: 1 worker and 8 workers produce
// byte-identical reports.
func TestPipelineDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	study := aid.CaseStudyByName("network")
	var reports [][]byte
	for _, workers := range []int{1, 8} {
		pipeline := aid.New(aid.WithCorpusSize(20, 20), aid.WithWorkers(workers))
		rep, err := pipeline.Run(ctx, aid.FromStudy(study))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		j, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, j)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Error("reports differ between 1 and 8 workers")
	}
}

// TestPipelineObserverEventOrder checks the observer sees the typed
// event stream in stage order with consistent counts.
func TestPipelineObserverEventOrder(t *testing.T) {
	var events []aid.Event
	pipeline := aid.New(
		aid.WithCorpusSize(20, 20),
		aid.WithObserver(aid.ObserverFunc(func(e aid.Event) { events = append(events, e) })),
	)
	rep, err := pipeline.Run(context.Background(), aid.FromStudy(aid.CaseStudyByName("npgsql")))
	if err != nil {
		t.Fatal(err)
	}
	var rounds, confirms int
	var sawCollected, sawExtracted, sawRanked, sawDAG, sawDone bool
	for _, e := range events {
		switch ev := e.(type) {
		case aid.CollectProgress:
			if sawCollected {
				t.Error("CollectProgress after TracesCollected")
			}
		case aid.TracesCollected:
			sawCollected = true
			if ev.Successes != 20 || ev.Failures != 20 {
				t.Errorf("TracesCollected = %d/%d, want 20/20", ev.Successes, ev.Failures)
			}
		case aid.PredicatesExtracted:
			sawExtracted = true
			if !sawCollected {
				t.Error("PredicatesExtracted before TracesCollected")
			}
			if ev.Total != rep.TotalPredicates {
				t.Errorf("PredicatesExtracted.Total = %d, want %d", ev.Total, rep.TotalPredicates)
			}
		case aid.Ranked:
			sawRanked = true
			if ev.FullyDiscriminative != rep.Discriminative {
				t.Errorf("Ranked = %d, want %d", ev.FullyDiscriminative, rep.Discriminative)
			}
		case aid.DAGBuilt:
			sawDAG = true
			if ev.Nodes != rep.DAGNodes {
				t.Errorf("DAGBuilt.Nodes = %d, want %d", ev.Nodes, rep.DAGNodes)
			}
		case aid.RoundDone:
			rounds++
			if ev.Index != rounds {
				t.Errorf("RoundDone.Index = %d, want %d", ev.Index, rounds)
			}
			if ev.Batch <= 0 {
				t.Errorf("RoundDone.Index %d: Batch = %d, want a positive scheduler batch id", ev.Index, ev.Batch)
			}
		case aid.CauseConfirmed:
			confirms++
		case aid.DiscoveryDone:
			sawDone = true
			if ev.Interventions != rep.AIDInterventions {
				t.Errorf("DiscoveryDone.Interventions = %d, want %d", ev.Interventions, rep.AIDInterventions)
			}
		}
	}
	if !sawCollected || !sawExtracted || !sawRanked || !sawDAG || !sawDone {
		t.Errorf("missing stage events: collected=%v extracted=%v ranked=%v dag=%v done=%v",
			sawCollected, sawExtracted, sawRanked, sawDAG, sawDone)
	}
	if rounds != rep.AIDInterventions {
		t.Errorf("observed %d RoundDone events, report says %d interventions", rounds, rep.AIDInterventions)
	}
	if confirms != rep.CausalPathLen {
		t.Errorf("observed %d CauseConfirmed events, causal path has %d predicates", confirms, rep.CausalPathLen)
	}
}

// TestPipelineVariants checks the ablation options are accepted and the
// unknown variant is rejected.
func TestPipelineVariants(t *testing.T) {
	ctx := context.Background()
	study := aid.CaseStudyByName("network")
	for _, v := range []aid.Variant{aid.VariantAID, aid.VariantAIDP, aid.VariantAIDPB} {
		pipeline := aid.New(aid.WithCorpusSize(20, 20), aid.WithVariant(v))
		rep, err := pipeline.Run(ctx, aid.FromStudy(study))
		if err != nil {
			t.Fatalf("variant %s: %v", v, err)
		}
		if rep.RootCause == "" {
			t.Errorf("variant %s found no root cause", v)
		}
	}
	pipeline := aid.New(aid.WithCorpusSize(20, 20), aid.WithVariant("nope"))
	if _, err := pipeline.Run(ctx, aid.FromStudy(study)); err == nil {
		t.Error("unknown variant accepted")
	}
}

// TestPipelineCorpusSizeLimits: a negative quota is an error, not a
// panic, and collection's buffers grow with the runs it keeps, not with
// the quotas or the pool width a caller asks for.
func TestPipelineCorpusSizeLimits(t *testing.T) {
	ctx := context.Background()
	npgsql := aid.FromStudy(aid.CaseStudyByName("npgsql"))
	for _, size := range [][2]int{{-100, 1}, {1, -1}} {
		if _, err := aid.New(aid.WithCorpusSize(size[0], size[1])).Run(ctx, npgsql); err == nil {
			t.Errorf("corpus size %d+%d accepted", size[0], size[1])
		}
	}
	allocated := func(opts ...aid.Option) (uint64, error) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := aid.New(opts...).Collect(ctx, npgsql)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	if n, err := allocated(aid.WithCorpusSize(2_000_000, 1), aid.WithSeedCap(50)); err == nil || n > 8<<20 {
		t.Errorf("2,000,000+1 within 50 seeds: %d bytes allocated (err %v), want a failure within 8 MB", n, err)
	}
	narrow, err := allocated(aid.WithCorpusSize(5, 5), aid.WithSeedCap(40), aid.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := allocated(aid.WithCorpusSize(5, 5), aid.WithSeedCap(40), aid.WithWorkers(20000))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("5+5 within 40 seeds: %d bytes at 1 worker, %d at 20000", narrow, wide)
	if wide > narrow+1<<20 {
		t.Errorf("20000 workers allocate %d bytes, 1 worker %d: more than 1 MB apart", wide, narrow)
	}
}
