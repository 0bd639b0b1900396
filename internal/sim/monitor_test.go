package sim_test

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"aid/internal/acdag"
	"aid/internal/casestudy"
	"aid/internal/core"
	"aid/internal/inject"
	"aid/internal/oracle/extractref"
	"aid/internal/predicate"
	"aid/internal/sim"
	"aid/internal/statdebug"
	"aid/internal/trace"
)

// The replay monitors' differential tests. Their reference is one-shot
// extraction: a corpus predicate occurs in a replay iff it occurs in the
// replay's row of Extract(baselines ++ replays marked failed), with the
// corpus's compounds materialized there in corpus order.

// referenceBits returns bits[r][i], whether the corpus's i-th predicate
// occurs in replays[r] by the reference.
func referenceBits(c *predicate.Corpus, baselines, replays []trace.Execution, cfg predicate.Config) [][]bool {
	set := &trace.Set{Executions: append(append([]trace.Execution(nil), baselines...), replays...)}
	for i := len(baselines); i < len(set.Executions); i++ {
		set.Executions[i].Outcome = trace.Failure
	}
	ref := predicate.Extract(set, cfg)
	for _, p := range c.Preds {
		if p.Kind == predicate.KindCompound {
			ref.MaterializeCompound(p)
		}
	}
	bits := make([][]bool, len(replays))
	for r := range replays {
		log := ref.Log(len(baselines) + r)
		for _, p := range c.Preds {
			bits[r] = append(bits[r], log.Has(p.ID))
		}
	}
	return bits
}

// checkBundle replays the group's seeds as the executor does and
// requires its observations to match the reference over the corpus's
// success baselines: Observed holds every corpus predicate but F and the
// group that occurs, and Failed is the replay's verdict under the
// executor's failure signature. It returns how many predicates the
// bundle observed.
func checkBundle(t *testing.T, x *inject.Executor, group []predicate.ID, obs []core.Observation) int {
	t.Helper()
	plan, err := inject.PlanFor(x.Corpus, group)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := sim.Prepare(x.Prog, plan)
	if err != nil {
		t.Fatal(err)
	}
	replays := make([]trace.Execution, len(x.Seeds))
	for i, seed := range x.Seeds {
		if replays[i], err = pp.RunGuarded(seed, sim.Budget{MaxSteps: x.MaxSteps}); err != nil {
			t.Fatal(err)
		}
	}
	if len(obs) != len(replays) {
		t.Fatalf("group %v: %d observations for %d replays", group, len(obs), len(replays))
	}
	bits := referenceBits(x.Corpus, x.Corpus.Logs().Successes().Set().Executions, replays, x.Cfg)
	n := 0
	for r, e := range replays {
		want := map[predicate.ID]bool{}
		for i, p := range x.Corpus.Preds {
			if bits[r][i] && p.ID != predicate.FailureID && !slices.Contains(group, p.ID) {
				want[p.ID] = true
			}
		}
		if got := slices.Collect(obs[r].Observed.All()); !slices.Equal(got, sortedIDs(want)) {
			t.Fatalf("group %v, seed %d: Observed %v, reference %v", group, x.Seeds[r], got, sortedIDs(want))
		}
		if failed := e.Failed() && (x.FailureSig == "" || e.FailureSig == x.FailureSig); obs[r].Failed != failed {
			t.Fatalf("group %v, seed %d: Failed %v, replay verdict %v", group, x.Seeds[r], obs[r].Failed, failed)
		}
		n += len(want)
	}
	return n
}

func sortedIDs(m map[predicate.ID]bool) []predicate.ID {
	ids := slices.Collect(maps.Keys(m))
	slices.Sort(ids)
	return ids
}

// recorder keeps every bundle the executor answers.
type recorder struct {
	*inject.Executor
	groups [][]predicate.ID
	obs    [][]core.Observation
}

func (r *recorder) Intervene(ctx context.Context, preds []predicate.ID) ([]core.Observation, error) {
	out, err := r.InterveneBatch(ctx, [][]predicate.ID{preds})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

func (r *recorder) InterveneBatch(ctx context.Context, groups [][]predicate.ID) ([][]core.Observation, error) {
	out, err := r.Executor.InterveneBatch(ctx, groups)
	if err == nil {
		r.groups = append(r.groups, groups...)
		r.obs = append(r.obs, out...)
	}
	return out, err
}

// TestObserveMatchesExtractStudies checks every bundle InterveneBatch
// answers while AID, AID-P and AID-P-B discover the six studies' causes
// at 50+50 and 10+40, with 0 and 2 compounds, against the reference.
// The corpus is extracted from the collection's logs, and the executor's
// monitors learn their baselines from them.
func TestObserveMatchesExtractStudies(t *testing.T) {
	ctx := context.Background()
	for _, s := range casestudy.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			bundles, observed := 0, 0
			for _, size := range [][2]int{{50, 50}, {10, 40}} {
				rc := casestudy.CollectConfig{Successes: size[0], Failures: size[1], SeedCap: 4000}
				logs, failSeeds, err := casestudy.Collect(ctx, s, rc)
				if err != nil {
					t.Fatal(err)
				}
				for _, compounds := range []int{0, 2} {
					cfg := s.Config()
					corpus := predicate.ExtractLogs(logs, cfg)
					if compounds > 0 {
						statdebug.GenerateCompounds(corpus, compounds)
					}
					dag, _, err := acdag.Build(corpus, statdebug.FullyDiscriminative(corpus), acdag.BuildOptions{})
					if err != nil {
						t.Fatal(err)
					}
					rec := &recorder{Executor: &inject.Executor{
						Prog: s.Program, Corpus: corpus,
						Seeds: failSeeds[:5], Cfg: cfg,
						FailureSig: s.FailureSig, MaxSteps: s.MaxSteps, Workers: 1,
					}}
					for _, opts := range []core.Options{core.AIDOptions(1), core.AIDPOptions(1), core.AIDPBOptions(1)} {
						if _, err := core.Discover(ctx, dag, rec, opts); err != nil {
							t.Fatal(err)
						}
					}
					for i, g := range rec.groups {
						observed += checkBundle(t, rec.Executor, g, rec.obs[i])
					}
					bundles += len(rec.groups)
				}
			}
			if bundles == 0 || observed == 0 {
				t.Fatalf("%d bundles observed %d predicates: nothing was compared", bundles, observed)
			}
		})
	}
}

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
			out := make([]trace.Execution, len(seeds))
			for j, seed := range seeds {
				out[j] = pp.Run(seed, 2000)
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
			want := referenceBits(corpus, [][]trace.Execution{baselines, other}[b], replays, cfg)
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
		if comp, err := c.CompoundAnd(a, b); err == nil && a != b && !c.Has(comp.ID) {
			c.MaterializeCompound(comp)
		}
	}
}

// TestObserveEdgeCases covers the monitors' corner cases: no baselines
// at all, a failed baseline and Executor.Baselines that name other runs
// than the corpus's successes (both rejected), and compounds whose
// member is not a corpus predicate or is a compound later in corpus
// order (both never occur, as extraction with compounds materialized in
// corpus order says), beside one that nests an earlier compound (it
// occurs).
func TestObserveEdgeCases(t *testing.T) {
	ctx := context.Background()
	s := casestudy.ByName("npgsql")
	rc := casestudy.CollectConfig{Successes: 20, Failures: 20, SeedCap: 4000}
	logs, failSeeds, err := casestudy.Collect(ctx, s, rc)
	if err != nil {
		t.Fatal(err)
	}
	set := logs.Set()
	cfg := s.Config()
	executor := func(c *predicate.Corpus) *inject.Executor {
		return &inject.Executor{
			Prog: s.Program, Corpus: c, Seeds: failSeeds[:5],
			Cfg: cfg, FailureSig: s.FailureSig, MaxSteps: s.MaxSteps, Workers: 1,
		}
	}
	corpus := predicate.ExtractLogs(logs, cfg)
	dag, _, err := acdag.Build(corpus, statdebug.FullyDiscriminative(corpus), acdag.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	group := dag.Nodes()[:1]
	if group[0] == predicate.FailureID {
		group = dag.Nodes()[1:2]
	}
	intervene := func(x *inject.Executor) []core.Observation {
		t.Helper()
		obs, err := x.Intervene(ctx, group)
		if err != nil {
			t.Fatal(err)
		}
		checkBundle(t, x, group, obs)
		return obs
	}
	var succ []trace.Execution
	var bad trace.Execution
	for _, e := range set.Executions {
		if e.Failed() {
			bad = e
		} else {
			succ = append(succ, e)
		}
	}

	t.Run("empty baselines", func(t *testing.T) {
		syms, err := s.Program.Symbols()
		if err != nil {
			t.Fatal(err)
		}
		ms, err := predicate.CompileMonitors(corpus, syms, &trace.LogSet{Syms: logs.Syms}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := inject.PlanFor(corpus, group)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := sim.Prepare(s.Program, plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range failSeeds[:5] {
			replay, err := pp.RunGuarded(seed, sim.Budget{MaxSteps: s.MaxSteps})
			if err != nil {
				t.Fatal(err)
			}
			want := referenceBits(corpus, nil, []trace.Execution{replay}, cfg)[0]
			if _, err := pp.Observe(seed, sim.Budget{MaxSteps: s.MaxSteps}, func(_ sim.Verdict, l *trace.RunLog) {
				ms.EvalLog(l, func(hit []bool) {
					if !slices.Equal(hit, want) {
						t.Fatalf("seed %d: monitors without baselines say %v, reference %v", seed, hit, want)
					}
				})
			}); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("failed baseline", func(t *testing.T) {
		bl := trace.Intern(&trace.Set{Executions: append(slices.Clone(succ), bad)})
		_, err := predicate.CompileMonitors(corpus, logs.Syms, bl, cfg)
		want := fmt.Sprintf("predicate: extractor baseline %q is a failed execution", bad.ID)
		if err == nil || err.Error() != want {
			t.Fatalf("CompileMonitors err = %v, want %q", err, want)
		}
		x := executor(corpus)
		x.Baselines = append(slices.Clone(succ), bad)
		_, err = x.Intervene(ctx, group)
		want = fmt.Sprintf("inject: Baselines hold %d executions, the corpus %d successful runs", len(succ)+1, len(succ))
		if err == nil || err.Error() != want {
			t.Fatalf("executor err = %v, want %q", err, want)
		}
		x = executor(corpus)
		x.Baselines = append([]trace.Execution{bad}, succ[1:]...)
		if _, err = x.Intervene(ctx, group); err == nil {
			t.Fatal("Baselines naming a failed run accepted")
		}
		x = executor(corpus)
		x.Baselines = succ
		intervene(x)
	})

	t.Run("compounds", func(t *testing.T) {
		// Two predicates that co-occur in the first replay of the group.
		ids := slices.Collect(intervene(executor(corpus))[0].Observed.All())
		if len(ids) < 2 {
			t.Fatalf("replay observed %v: need two predicates", ids)
		}
		a, b := ids[0], ids[1]
		c := predicate.ExtractLogs(logs, cfg)
		inner, err := c.CompoundAnd(a, b)
		if err != nil {
			t.Fatal(err)
		}
		unknown := predicate.Predicate{ID: "and(unknown)", Kind: predicate.KindCompound, Members: []predicate.ID{a, "nope:Missing#0"}}
		later := predicate.Predicate{ID: "and(later)", Kind: predicate.KindCompound, Members: []predicate.ID{a, inner.ID}}
		nested := predicate.Predicate{ID: "and(nested)", Kind: predicate.KindCompound, Members: []predicate.ID{inner.ID, b}}
		for _, p := range []predicate.Predicate{unknown, later, inner, nested} {
			c.MaterializeCompound(p)
		}
		obs := intervene(executor(c))
		if !obs[0].Observed.Has(inner.ID) || !obs[0].Observed.Has(nested.ID) {
			t.Fatalf("first replay observed %v: want %s and and(nested)", obs[0].Observed, inner.ID)
		}
		for _, o := range obs {
			if o.Observed.Has(unknown.ID) || o.Observed.Has(later.ID) {
				t.Fatalf("a compound with an unknown or later member occurred: %v", o.Observed)
			}
		}
	})
}
