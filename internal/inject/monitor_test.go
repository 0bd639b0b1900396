package inject

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"

	"aid/internal/acdag"
	"aid/internal/casestudy"
	"aid/internal/core"
	"aid/internal/oracle/extractref"
	"aid/internal/predicate"
	"aid/internal/sim"
	"aid/internal/statdebug"
	"aid/internal/trace"
)

// The replay monitors' differential tests on the executor's bundles.
// Their reference is extractref.ReplayBits: a corpus predicate occurs
// in a replay iff it occurs in the replay's row of one-shot extraction
// over the baselines plus the replays, marked failed.

// replaySymbols names the runs of prog under plan as sim.Prepare does:
// the program's symbols, then the mutexes the plan adds to the
// program's methods, in name order.
func replaySymbols(t *testing.T, prog *sim.Program, plan sim.Plan) trace.Symbols {
	t.Helper()
	syms, err := prog.Symbols()
	if err != nil {
		t.Fatal(err)
	}
	var added []string
	for fn, inj := range plan {
		if prog.Funcs[fn] != nil {
			added = append(added, inj.GlobalLocks...)
		}
	}
	slices.Sort(added)
	added = slices.DeleteFunc(slices.Compact(added), func(mu string) bool { return slices.Contains(syms.Mutexes, mu) })
	syms.Mutexes = append(slices.Clip(syms.Mutexes), added...)
	return syms
}

// replayTraces runs the group's plan on the executor's seeds and
// returns the replays' traces.
func replayTraces(t *testing.T, x *Executor, group []predicate.ID) []trace.Execution {
	t.Helper()
	plan, err := planFor(x.Corpus, group, 0)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := sim.Prepare(x.Prog, plan)
	if err != nil {
		t.Fatal(err)
	}
	syms := replaySymbols(t, x.Prog, plan)
	out := make([]trace.Execution, len(x.Seeds))
	for i, seed := range x.Seeds {
		run, _ := pp.RunIf(seed, x.MaxSteps, nil)
		out[i] = run.Execution(&syms)
	}
	return out
}

// checkBundle replays the group's seeds as the executor does and
// requires its observations to match the reference over the corpus's
// success baselines: Observed holds every corpus predicate but F and the
// group that occurs, and Failed is the replay's verdict under the
// executor's failure signature. It returns how many predicates the
// bundle observed.
func checkBundle(t *testing.T, x *Executor, group []predicate.ID, obs []core.Observation) int {
	t.Helper()
	replays := replayTraces(t, x, group)
	if len(obs) != len(replays) {
		t.Fatalf("group %v: %d observations for %d replays", group, len(obs), len(replays))
	}
	bits := extractref.ReplayBits(x.Corpus, x.Corpus.Logs().Successes().Set().Executions, replays, x.Cfg)
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

// observed reports whether o observed the predicate.
func observed(o core.Observation, id predicate.ID) bool {
	return slices.Contains(slices.Collect(o.Observed.All()), id)
}

func sortedIDs(m map[predicate.ID]bool) []predicate.ID {
	ids := slices.Collect(maps.Keys(m))
	slices.Sort(ids)
	return ids
}

// recorder keeps every bundle the executor answers; discovery asks for
// one group at a time.
type recorder struct {
	*Executor
	groups [][]predicate.ID
	obs    [][]core.Observation
}

func (r *recorder) Intervene(ctx context.Context, preds []predicate.ID) ([]core.Observation, error) {
	out, err := r.Executor.Intervene(ctx, preds)
	if err == nil {
		r.groups = append(r.groups, slices.Clone(preds))
		r.obs = append(r.obs, out)
	}
	return out, err
}

// TestObserveMatchesExtractStudies checks every bundle the executor
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
					rec := &recorder{Executor: &Executor{
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
	executor := func(c *predicate.Corpus) *Executor {
		return &Executor{
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
	intervene := func(x *Executor) []core.Observation {
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
		plan, err := planFor(corpus, group, 0)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := sim.Prepare(s.Program, plan)
		if err != nil {
			t.Fatal(err)
		}
		rsyms := replaySymbols(t, s.Program, plan)
		for _, seed := range failSeeds[:5] {
			run, _ := pp.RunIf(seed, s.MaxSteps, nil)
			want := extractref.ReplayBits(corpus, nil, []trace.Execution{run.Execution(&rsyms)}, cfg)[0]
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
		if !observed(obs[0], inner.ID) || !observed(obs[0], nested.ID) {
			t.Fatalf("first replay observed %v: want %s and and(nested)", obs[0].Observed, inner.ID)
		}
		for _, o := range obs {
			if observed(o, unknown.ID) || observed(o, later.ID) {
				t.Fatalf("a compound with an unknown or later member occurred: %v", o.Observed)
			}
		}
	})
}
