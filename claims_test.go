package aid_test

import (
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"aid"
	"aid/internal/inject"
	"aid/internal/predicate"
	"aid/internal/sim"
)

// The paper's claims about the case studies, checked on what ships:
// every report here comes from aid.Pipeline.

// TestFullPipeline runs the complete AID pipeline on every case study
// and checks the paper's qualitative claims.
func TestFullPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	for _, s := range aid.CaseStudies() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			rep, err := aid.New(aid.WithCorpusSize(30, 30)).Run(context.Background(), aid.FromStudy(s))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: discr=%d path=%d AID=%d TAGT=%d root=%s",
				rep.Study, rep.Discriminative, rep.CausalPathLen,
				rep.AIDInterventions, rep.TAGTInterventions, rep.Result.RootCause())
			t.Logf("explanation:\n  %s", strings.Join(rep.Explanation, "\n  "))
			if !strings.HasPrefix(string(rep.Result.RootCause()), s.WantRootPrefix) {
				t.Errorf("root cause = %s, want prefix %s", rep.Result.RootCause(), s.WantRootPrefix)
			}
			if rep.CausalPathLen < 1 {
				t.Error("empty causal path")
			}
			if rep.Discriminative <= rep.CausalPathLen {
				t.Errorf("SD should find more predicates (%d) than the causal path (%d)",
					rep.Discriminative, rep.CausalPathLen)
			}
			if rep.AIDInterventions > rep.TAGTInterventions {
				t.Errorf("AID used %d interventions, TAGT %d — AID should not lose",
					rep.AIDInterventions, rep.TAGTInterventions)
			}
		})
	}
}

// collectAndRun collects the corpus the pipeline's Run will collect,
// extracts it, and runs the pipeline: the repair checks below replay
// the report's predicates against that corpus's failing seeds.
func collectAndRun(t *testing.T, p *aid.Pipeline, src aid.TraceSource) (*aid.Traces, *aid.Corpus, *aid.Report) {
	t.Helper()
	ctx := context.Background()
	tr, err := p.Collect(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	corpus := p.Extract(tr)
	rep, err := p.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	return tr, corpus, rep
}

// failingSeeds is an executor that replays every failing seed of the
// corpus, each run judged failed only under the study's signature.
func failingSeeds(s *aid.CaseStudy, tr *aid.Traces, corpus *predicate.Corpus) *inject.Executor {
	return &inject.Executor{
		Prog: s.Program, Corpus: corpus, Seeds: tr.FailSeeds,
		Cfg: s.Config(), FailureSig: s.FailureSig, MaxSteps: s.MaxSteps, Workers: 1,
	}
}

// TestRootCausePathRepairsEveryFailingSeed is the strongest end-to-end
// property: for each case study, every predicate on AID's discovered
// causal path, when repaired on its own, must prevent the failure on
// every failing seed of the corpus — each path element is a
// counterfactual cause, not just a correlate (Definition 1).
func TestRootCausePathRepairsEveryFailingSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("repair validation is slow")
	}
	for _, s := range aid.CaseStudies() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			tr, corpus, rep := collectAndRun(t, aid.New(aid.WithCorpusSize(25, 25)), aid.FromStudy(s))
			x := failingSeeds(s, tr, corpus)
			for _, cause := range rep.Result.Path {
				if cause == aid.FailureID {
					continue
				}
				persists, err := x.Persists(t.Context(), []predicate.ID{cause})
				if err != nil {
					t.Fatalf("repairing %s: %v", cause, err)
				}
				if persists {
					t.Fatalf("repairing %s did not prevent the failure on every failing seed", cause)
				}
			}
		})
	}
}

// TestSpuriousPredicatesDoNotRepair checks the complementary property
// on a sample: repairing a predicate AID classified spurious leaves the
// failure reproducible on at least one failing seed.
func TestSpuriousPredicatesDoNotRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("repair validation is slow")
	}
	for _, name := range []string{"npgsql", "network", "healthtelemetry"} {
		s := aid.CaseStudyByName(name)
		t.Run(s.Name, func(t *testing.T) {
			tr, corpus, rep := collectAndRun(t, aid.New(aid.WithCorpusSize(25, 25)), aid.FromStudy(s))
			checked := 0
			for _, spur := range rep.Result.Spurious {
				if checked >= 5 {
					break
				}
				p := corpus.Pred(spur)
				if p == nil || p.Repair.Kind == predicate.IvNone || !p.Repair.Safe {
					continue
				}
				stillFails, err := failingSeeds(s, tr, corpus).Persists(t.Context(), []predicate.ID{spur})
				if err != nil {
					t.Fatalf("repairing %s: %v", spur, err)
				}
				if !stillFails {
					t.Errorf("repairing spurious %s prevented the failure on every seed", spur)
				}
				checked++
			}
			if checked == 0 {
				t.Skip("no safely-repairable spurious predicates to check")
			}
		})
	}
}

func TestRunVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("variant comparison is slow")
	}
	ctx := context.Background()
	src := aid.FromStudy(aid.CaseStudyByName("network"))
	counts := map[aid.Variant]int{}
	for _, v := range []aid.Variant{aid.VariantAID, aid.VariantAIDP, aid.VariantAIDPB} {
		rep, err := aid.New(aid.WithCorpusSize(25, 25), aid.WithVariant(v)).Run(ctx, src)
		if err != nil {
			t.Fatalf("variant %s: %v", v, err)
		}
		if rep.Result.RootCause() == "" {
			t.Fatalf("variant %s found no root cause", v)
		}
		counts[v] = rep.AIDInterventions
	}
	if counts[aid.VariantAID] > counts[aid.VariantAIDPB] {
		t.Fatalf("full AID (%d rounds) should not exceed AID-P-B (%d)", counts[aid.VariantAID], counts[aid.VariantAIDPB])
	}
	if _, err := aid.New(aid.WithVariant("bogus")).Run(ctx, src); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

// TestRunDeterministicAcrossWorkers is the pipeline's determinism
// regression test: the full report of a case study must be byte-
// identical whether the execution pool runs one worker or many.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	src := aid.FromStudy(aid.CaseStudyByName("npgsql"))
	run := func(workers int) *aid.Report {
		rep, err := aid.New(aid.WithCorpusSize(20, 20), aid.WithReplays(3), aid.WithWorkers(workers)).Run(ctx, src)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rep
	}
	seq := run(1)
	for _, workers := range []int{3, 8} {
		par := run(workers)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: report differs from single-worker run", workers)
		}
		seqJSON, err := json.Marshal(seq)
		if err != nil {
			t.Fatal(err)
		}
		parJSON, err := json.Marshal(par)
		if err != nil {
			t.Fatal(err)
		}
		if string(seqJSON) != string(parJSON) {
			t.Fatalf("workers=%d: serialized report not byte-identical", workers)
		}
	}
}

// compoundProgram builds an application whose root cause is a
// conjunction (§3.2: "two predicates A and B in conjunction cause a
// failure"). Each subsystem check throws a degradation exception that
// the caller catches and converts into a lag penalty; the request
// budget only bursts when BOTH subsystems degrade. Each "CheckX fails"
// predicate also fires in successful runs where only that subsystem
// degraded — so neither is fully discriminative alone, but their
// conjunction is, and repairing either one (absorbing its exception so
// the penalty handler never runs) prevents the failure. It fails with
// sim.UncaughtSig("SLOViolation").
func compoundProgram() *sim.Program {
	p := sim.NewProgram("compound", "Main")
	p.Globals["diskSlow"] = 0
	p.Globals["netSlow"] = 0
	p.Globals["lag"] = 0

	check := func(name, flag, exc string) {
		p.AddFunc(name,
			sim.ReadGlobal{Var: flag, Dst: "v"},
			sim.If{Cond: sim.Cond{A: sim.V("v"), Op: sim.EQ, B: sim.Lit(1)},
				Then: []sim.Op{sim.Throw{Kind: exc}}},
			sim.Return{Val: sim.Lit(0)},
		).SideEffectFree = true
	}
	check("CheckDisk", "diskSlow", "DiskDegraded")
	check("CheckNet", "netSlow", "NetDegraded")

	penalty := func(exc string) sim.Op {
		return sim.Try{
			Body:      []sim.Op{sim.Call{Fn: map[string]string{"DiskDegraded": "CheckDisk", "NetDegraded": "CheckNet"}[exc]}},
			CatchKind: exc,
			Handler: []sim.Op{
				sim.ReadGlobal{Var: "lag", Dst: "l"},
				sim.Arith{Dst: "l", A: sim.V("l"), Op: sim.OpAdd, B: sim.Lit(1)},
				sim.WriteGlobal{Var: "lag", Src: sim.V("l")},
			},
		}
	}

	p.AddFunc("ValidateBudget",
		sim.ReadGlobal{Var: "lag", Dst: "l"},
		sim.If{Cond: sim.Cond{A: sim.V("l"), Op: sim.GE, B: sim.Lit(2)},
			Then: []sim.Op{sim.Throw{Kind: "SLOViolation"}}},
	).SideEffectFree = true
	p.AddFunc("ServeRequest",
		sim.Call{Fn: "ValidateBudget"},
		sim.Sleep{Ticks: sim.Lit(2)},
	) // mutates request state in the real system

	p.AddFunc("Main",
		sim.Random{Dst: "d", N: sim.Lit(2)},
		sim.If{Cond: sim.Cond{A: sim.V("d"), Op: sim.EQ, B: sim.Lit(0)},
			Then: []sim.Op{sim.WriteGlobal{Var: "diskSlow", Src: sim.Lit(1)}}},
		sim.Random{Dst: "n", N: sim.Lit(2)},
		sim.If{Cond: sim.Cond{A: sim.V("n"), Op: sim.EQ, B: sim.Lit(0)},
			Then: []sim.Op{sim.WriteGlobal{Var: "netSlow", Src: sim.Lit(1)}}},
		penalty("DiskDegraded"),
		penalty("NetDegraded"),
		sim.Call{Fn: "ServeRequest"},
	)
	return p
}

// compoundSource scopes the compound program to its SLO failure.
func compoundSource() *aid.ProgramSource {
	src := aid.FromProgram(compoundProgram())
	src.FailureSig = sim.UncaughtSig("SLOViolation")
	return src
}

func TestCompoundRootCauseDiscovery(t *testing.T) {
	pipeline := aid.New(aid.WithCorpusSize(40, 30), aid.WithReplays(5), aid.WithCompounds(10))
	rep, err := pipeline.Run(context.Background(), compoundSource())
	if err != nil {
		t.Fatal(err)
	}
	root := string(rep.Result.RootCause())
	if !strings.HasPrefix(root, "and(") {
		t.Fatalf("root cause = %q, want a compound predicate (path %v)", root, rep.Path)
	}
	if !strings.Contains(root, "fails:CheckDisk#0") || !strings.Contains(root, "fails:CheckNet#0") {
		t.Fatalf("compound root %q should conjoin both subsystem checks", root)
	}
}

func TestCompoundDisabledFindsClosestSinglePredicate(t *testing.T) {
	// Without compound generation the conjuncts are not fully
	// discriminative, so AID reports the closest fully-discriminative
	// predicate instead (the budget check that directly raises the
	// failure) — the paper's fallback when no single predicate captures
	// the true root cause.
	pipeline := aid.New(aid.WithCorpusSize(40, 30), aid.WithReplays(5))
	rep, err := pipeline.Run(context.Background(), compoundSource())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range rep.Path {
		if strings.HasPrefix(id, "and(") {
			t.Fatalf("compound predicate %s present despite no compounds", id)
		}
	}
	if got := string(rep.Result.RootCause()); !strings.HasPrefix(got, "fails:ValidateBudget") {
		t.Fatalf("fallback root cause = %q, want fails:ValidateBudget", got)
	}
}

// The paper assumes a single root cause per failure *signature*
// (§5.1): an application may contain several intermittent bugs, but
// failure trackers group crashes by stack-trace metadata, and AID
// debugs each group separately. The tests below run that workflow on a
// two-bug application: one pipeline per signature, each on a source
// scoped to it with FailureSig.

// twoBugProgram builds an application with two independent
// intermittent bugs that crash with distinct signatures:
//
//   - bug 1: a lost-update race on `slots` crashes with SlotCorrupt;
//   - bug 2: a random configuration collision crashes with ConfigClash.
//
// Either, both, or neither may trigger in a given run; when both
// trigger, the race's check runs first and defines the signature.
func twoBugProgram() *sim.Program {
	p := sim.NewProgram("twobug", "Main")
	p.Globals["slots"] = 0
	p.Globals["cfgA"] = 0
	p.Globals["cfgB"] = 0

	bump := func(name string) {
		p.AddFunc(name,
			sim.ReadGlobal{Var: "slots", Dst: "c"},
			sim.Nop{}, sim.Nop{},
			sim.Arith{Dst: "c", A: sim.V("c"), Op: sim.OpAdd, B: sim.Lit(1)},
			sim.WriteGlobal{Var: "slots", Src: sim.V("c")},
		)
	}
	bump("BumpA")
	bump("BumpB")
	p.AddFunc("ReadSlots",
		sim.ReadGlobal{Var: "slots", Dst: "v"},
		sim.Return{Val: sim.V("v")},
	).SideEffectFree = true

	p.AddFunc("PickCfgA",
		sim.Random{Dst: "r", N: sim.Lit(5)},
		sim.WriteGlobal{Var: "cfgA", Src: sim.V("r")},
		sim.Return{Val: sim.V("r")},
	)
	p.AddFunc("PickCfgB",
		sim.Random{Dst: "r", N: sim.Lit(5)},
		sim.WriteGlobal{Var: "cfgB", Src: sim.V("r")},
		sim.Return{Val: sim.V("r")},
	)
	p.AddFunc("CheckClash",
		sim.ReadGlobal{Var: "cfgA", Dst: "a"},
		sim.ReadGlobal{Var: "cfgB", Dst: "b"},
		sim.If{Cond: sim.Cond{A: sim.V("a"), Op: sim.EQ, B: sim.V("b")},
			Then: []sim.Op{sim.Return{Val: sim.Lit(1)}}},
		sim.Return{Val: sim.Lit(0)},
	).SideEffectFree = true

	p.AddFunc("Main",
		sim.Spawn{Fn: "BumpA", Dst: "ta"},
		sim.Spawn{Fn: "BumpB", Dst: "tb"},
		sim.Join{Thread: sim.V("ta")},
		sim.Join{Thread: sim.V("tb")},
		sim.Call{Fn: "ReadSlots", Dst: "n"},
		sim.If{Cond: sim.Cond{A: sim.V("n"), Op: sim.NE, B: sim.Lit(2)},
			Then: []sim.Op{sim.Throw{Kind: "SlotCorrupt"}}},
		sim.Call{Fn: "PickCfgA"},
		sim.Call{Fn: "PickCfgB"},
		sim.Call{Fn: "CheckClash", Dst: "c"},
		sim.If{Cond: sim.Cond{A: sim.V("c"), Op: sim.EQ, B: sim.Lit(1)},
			Then: []sim.Op{sim.Throw{Kind: "ConfigClash"}}},
	)
	return p
}

// discoverSignatures runs seeds 1..seeds and returns the distinct
// failure signatures observed, most frequent first.
func discoverSignatures(p *sim.Program, seeds int) []string {
	pp, err := sim.Prepare(p, nil)
	if err != nil {
		panic(err)
	}
	counts := make(map[string]int)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		v, err := pp.Observe(seed, 0, nil)
		if err != nil {
			panic(err)
		}
		if v.Failed {
			counts[v.Sig]++
		}
	}
	sigs := make([]string, 0, len(counts))
	for sig := range counts {
		sigs = append(sigs, sig)
	}
	sort.Slice(sigs, func(i, j int) bool {
		if counts[sigs[i]] != counts[sigs[j]] {
			return counts[sigs[i]] > counts[sigs[j]]
		}
		return sigs[i] < sigs[j]
	})
	return sigs
}

func TestDiscoverSignaturesFindsBoth(t *testing.T) {
	sigs := discoverSignatures(twoBugProgram(), 400)
	if len(sigs) != 2 {
		t.Fatalf("signatures = %v, want both bugs", sigs)
	}
	want := map[string]bool{
		sim.UncaughtSig("SlotCorrupt"): true,
		sim.UncaughtSig("ConfigClash"): true,
	}
	for _, sig := range sigs {
		if !want[sig] {
			t.Fatalf("unexpected signature %q", sig)
		}
	}
}

func TestMultiBugPerSignatureRootCauses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-bug pipeline is slow")
	}
	const seedCap = 8000
	pipeline := aid.New(aid.WithCorpusSize(30, 25), aid.WithSeedCap(seedCap), aid.WithReplays(5))
	prog := twoBugProgram()
	sigs := discoverSignatures(prog, seedCap/4)
	if len(sigs) == 0 {
		t.Fatal("no failures observed")
	}
	reports := make(map[string]*aid.Report, len(sigs))
	for _, sig := range sigs {
		src := aid.FromProgram(prog)
		src.FailureSig = sig
		rep, err := pipeline.Run(context.Background(), src)
		if err != nil {
			t.Fatalf("signature %q: %v", sig, err)
		}
		reports[sig] = rep
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}

	race := reports[sim.UncaughtSig("SlotCorrupt")]
	if race == nil {
		t.Fatal("no report for the race signature")
	}
	if got := string(race.Result.RootCause()); !strings.HasPrefix(got, "race:BumpA|BumpB@slots") {
		t.Errorf("race-bug root cause = %s", got)
	}

	clash := reports[sim.UncaughtSig("ConfigClash")]
	if clash == nil {
		t.Fatal("no report for the clash signature")
	}
	if got := string(clash.Result.RootCause()); !strings.HasPrefix(got, "ret:CheckClash") {
		t.Errorf("clash-bug root cause = %s", got)
	}

	// The two groups must not leak into each other: the race predicate
	// cannot be fully discriminative for the clash signature's corpus
	// (it also fires in that corpus's excluded failures, but fires in
	// no success and not in all clash failures).
	for _, id := range clash.Path {
		if strings.HasPrefix(id, "race:") {
			t.Errorf("clash-bug path contains race predicate %s", id)
		}
	}
	for _, id := range race.Path {
		if strings.HasPrefix(id, "ret:CheckClash") {
			t.Errorf("race-bug path contains clash predicate %s", id)
		}
	}
}
