package sim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"aid/internal/oracle/extractref"
	"aid/internal/predicate"
	"aid/internal/sim"
	"aid/internal/trace"
)

// The replay monitors' differential tests. Their reference is
// extractref.ReplayBits: a corpus predicate occurs in a replay iff it
// occurs in the replay's row of one-shot extraction over the baselines
// plus the replays, marked failed.

// TestMonitorsMatchExtractProperty compiles monitors for random
// programs' corpora and checks them against the reference on replays
// under random seeds and plans, from the equivalence generator (run in
// a two-worker harness). The monitors learn from the corpus's own
// success logs, interned from its set, and from other baselines'
// logs, each in symbols of their own; each replay is evaluated from the
// machine's logs (sim.Observe), as the executor reads it. Every
// predicate kind must occur in some replay, or the generated set no
// longer exercises its monitor.
func TestMonitorsMatchExtractProperty(t *testing.T) {
	const n = 400
	r := rand.New(rand.NewSource(20261017))
	seen := map[predicate.Kind]int{}
	for i := 0; i < n; i++ {
		p := sim.GenProgram(r, i)
		harness(r, p)
		syms, err := p.Symbols()
		if err != nil {
			t.Fatal(err)
		}
		type replay struct {
			pp   *sim.Prepared
			seed int64
		}
		var logs []replay
		run := func(plan sim.Plan, outcome trace.Outcome, seeds ...int64) []trace.Execution {
			pp, err := sim.Prepare(p, plan)
			if err != nil {
				t.Fatal(err)
			}
			psyms := sim.PreparedSymbols(pp)
			out := make([]trace.Execution, len(seeds))
			for j, seed := range seeds {
				run, _ := pp.RunIf(seed, 2000, nil)
				out[j] = run.Execution(&psyms)
				out[j].Outcome = outcome
				logs = append(logs, replay{pp, seed})
			}
			return out
		}
		// The corpus: unplanned runs as success baselines, and as failed
		// rows further unplanned runs plus runs under a random plan.
		cfg := predicate.Config{DurationMargin: trace.Time(r.Intn(3))}
		plan := sim.GenPlan(r, p)
		baselines := run(nil, trace.Success, seedRange(1, 8)...)
		rows := slices.Concat(baselines, run(nil, trace.Failure, seedRange(9, 20)...), run(plan, trace.Failure, seedRange(1, 4)...))
		corpus := predicate.Extract(&trace.Set{Executions: rows}, cfg)
		addCompounds(r, corpus)
		// Replays: the corpus plan and a fresh one under new seeds, and
		// unplanned runs (replays are judged as failed whatever their
		// outcome).
		logs = nil
		replays := slices.Concat(run(plan, trace.Failure, seedRange(5, 10)...),
			run(sim.GenPlan(r, p), trace.Failure, seedRange(1, 4)...), run(nil, trace.Success, seedRange(21, 28)...))
		replayLogs := logs
		// Monitors against the corpus's own baselines, as the executor
		// compiles them, and against other ones, where the baseline facts
		// compiled into the monitors decide what can occur.
		other := run(nil, trace.Success, seedRange(5, 12)...)
		for b, base := range []*trace.LogSet{corpus.Logs().Successes(), trace.Intern(&trace.Set{Executions: other})} {
			ms, err := predicate.CompileMonitors(corpus, syms, base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := extractref.ReplayBits(corpus, [][]trace.Execution{baselines, other}[b], replays, cfg)
			for k := range replays {
				rl := replayLogs[k]
				if _, err := rl.pp.Observe(rl.seed, sim.Budget{MaxSteps: 2000}, func(_ sim.Verdict, l *trace.RunLog) {
					ms.EvalLog(l, func(hit []bool) {
						for j, pr := range corpus.Preds {
							if hit[j] != want[k][j] {
								t.Fatalf("program %d, replay %d: %s monitor says %v, reference %v", i, k, pr.ID, hit[j], want[k][j])
							}
						}
						for j, pr := range corpus.Preds {
							if hit[j] {
								seen[pr.Kind]++
							}
						}
					})
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, k := range []predicate.Kind{
		predicate.KindFailure, predicate.KindMethodFails, predicate.KindTooSlow,
		predicate.KindTooFast, predicate.KindStartsLate, predicate.KindWrongReturn,
		predicate.KindDataRace, predicate.KindOrderViolation,
		predicate.KindAtomicityViolation, predicate.KindCompound,
	} {
		if seen[k] == 0 {
			t.Errorf("no generated replay exhibits a %s predicate", k)
		}
	}
	t.Logf("occurrences by kind: %v", seen)
}

// TestExtractMatchesReferenceGenerated requires predicate.Extract to
// encode byte-identically to the map-keyed reference extractor
// (internal/oracle/extractref) on corpora of the equivalence
// generator's programs, run in the two-worker harness: unplanned and
// planned runs, labelled by their own outcome and by a random one, with
// and without a duration margin, a side-effect-free oracle and a
// pure-method oracle. Each corpus is extracted twice, from the runs'
// logs (sim.Prepared.RunIf) and from their materialized set.
func TestExtractMatchesReferenceGenerated(t *testing.T) {
	const n = 200
	r := rand.New(rand.NewSource(20261018))
	with := predicate.Config{
		DurationMargin: 2,
		SideEffectFree: func(m string) bool { return m < "F2" },
		PureMethods:    func(m string) bool { return m == "F1" },
	}
	preds := 0
	for i := 0; i < n; i++ {
		p := sim.GenProgram(r, i)
		harness(r, p)
		// The planned runs' symbols name the plan's mutexes too, past the
		// program's, which are all the unplanned runs use.
		rows := &trace.LogSet{}
		for _, plan := range []sim.Plan{nil, sim.GenPlan(r, p)} {
			pp, err := sim.Prepare(p, plan)
			if err != nil {
				t.Fatal(err)
			}
			rows.Syms = sim.PreparedSymbols(pp)
			for seed := int64(1); seed <= 12; seed++ {
				run, _ := pp.RunIf(seed, 2000, nil)
				rows.Runs = append(rows.Runs, run)
			}
		}
		relabelled := &trace.LogSet{Syms: rows.Syms, Runs: slices.Clone(rows.Runs)}
		for k := range relabelled.Runs {
			relabelled.Runs[k].Outcome = trace.Outcome(r.Intn(2))
		}
		for _, logs := range []*trace.LogSet{rows, relabelled} {
			set := logs.Set()
			for _, cfg := range []predicate.Config{with, {}} {
				if err := extractref.CompareLogs(logs, cfg); err != nil {
					t.Fatalf("program %d, from the logs: %v", i, err)
				}
				if err := extractref.Compare(set, cfg); err != nil {
					t.Fatalf("program %d, from the set: %v", i, err)
				}
			}
			preds += predicate.ExtractLogs(logs, with).NumPreds()
		}
	}
	t.Logf("%d predicates over %d programs", preds, n)
}

func seedRange(lo, hi int64) []int64 {
	var out []int64
	for s := lo; s <= hi; s++ {
		out = append(out, s)
	}
	return out
}

// harness makes a generated program interleave: most generated
// programs end within a call or two, so two extra threads each call a
// few of its functions in turn (some under a lock), touching the shared
// globals between calls, the second after a short sleep, beside the
// program's own Main.
func harness(r *rand.Rand, p *sim.Program) {
	var fns []string
	for _, n := range p.FuncNames() {
		if n != p.Entry {
			fns = append(fns, n)
		}
	}
	slices.Sort(fns)
	worker := func(name string, sleep int) {
		body := []sim.Op{sim.Sleep{Ticks: sim.Lit(int64(sleep))}}
		for k := 0; k < 2+r.Intn(3); k++ {
			g := fmt.Sprintf("g%d", r.Intn(3))
			if r.Intn(2) == 0 {
				body = append(body, sim.WriteGlobal{Var: g, Src: sim.Lit(int64(k))})
			} else {
				body = append(body, sim.ReadGlobal{Var: g, Dst: "v"})
			}
			call := sim.Call{Fn: fns[r.Intn(len(fns))]}
			if r.Intn(2) == 0 {
				body = append(body, sim.Lock{Mu: "m0"}, call, sim.Unlock{Mu: "m0"})
			} else {
				body = append(body, call)
			}
		}
		p.AddFunc(name, body...)
	}
	worker("W0", 0)
	worker("W1", r.Intn(30))
	p.AddFunc("Harness",
		sim.Spawn{Fn: "W0", Dst: "a"}, sim.Spawn{Fn: "W1", Dst: "b"},
		sim.Call{Fn: p.Entry},
		sim.Join{Thread: sim.V("a")}, sim.Join{Thread: sim.V("b")})
	p.Entry = "Harness"
}

// addCompounds materializes a few conjunctions of predicates that
// co-occur in a random corpus row, nesting earlier compounds too.
func addCompounds(r *rand.Rand, c *predicate.Corpus) {
	for k := 0; k < 4; k++ {
		var ids []predicate.ID
		for id := range c.Log(r.Intn(c.NumLogs())).OccMap() {
			if id != predicate.FailureID {
				ids = append(ids, id)
			}
		}
		if len(ids) < 2 {
			continue
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		a, b := ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]
		if comp, err := c.CompoundAnd(a, b); err == nil && a != b && c.Pred(comp.ID) == nil {
			c.MaterializeCompound(comp)
		}
	}
}
