package inject

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aid/internal/core"
	"aid/internal/predicate"
	"aid/internal/sim"
	"aid/internal/trace"
)

// corpusWith registers predicates in a fresh corpus.
func corpusWith(preds ...predicate.Predicate) *predicate.Corpus {
	c := predicate.NewCorpus()
	for _, p := range preds {
		c.AddPred(p)
	}
	return c
}

func TestPlanForLockMethods(t *testing.T) {
	c := corpusWith(predicate.Predicate{
		ID: "race:A|B@x",
		Repair: predicate.Intervention{
			Kind: predicate.IvLockMethods, Methods: []string{"A", "B"}, Safe: true,
		},
	})
	plan, err := PlanFor(c, []predicate.ID{"race:A|B@x"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 2 {
		t.Fatalf("plan has %d methods, want 2", len(plan))
	}
	if len(plan["A"].GlobalLocks) != 1 || plan["A"].GlobalLocks[0] != plan["B"].GlobalLocks[0] {
		t.Fatalf("lock names differ: %v vs %v", plan["A"].GlobalLocks, plan["B"].GlobalLocks)
	}
	if !strings.HasPrefix(plan["A"].GlobalLocks[0], "aid.lock:") {
		t.Fatalf("lock name %q lacks namespace", plan["A"].GlobalLocks[0])
	}
}

func TestPlanForReturnInterventions(t *testing.T) {
	c := corpusWith(
		predicate.Predicate{ID: "slow:M#0", Repair: predicate.Intervention{
			Kind: predicate.IvPrematureReturn, Methods: []string{"M"}, Value: 7, Safe: true}},
		predicate.Predicate{ID: "slow:V#0", Repair: predicate.Intervention{
			Kind: predicate.IvPrematureReturn, Methods: []string{"V"}, Void: true, Safe: true}},
		predicate.Predicate{ID: "ret:N#0", Repair: predicate.Intervention{
			Kind: predicate.IvOverrideReturn, Methods: []string{"N"}, Value: 9, Safe: true}},
		predicate.Predicate{ID: "fast:O#0", Repair: predicate.Intervention{
			Kind: predicate.IvDelayReturn, Methods: []string{"O"}, Delay: 11, Safe: true}},
		predicate.Predicate{ID: "fails:P#0", Repair: predicate.Intervention{
			Kind: predicate.IvCatchException, Methods: []string{"P"}, Value: 3, Safe: true}},
	)
	plan, err := PlanFor(c, []predicate.ID{"slow:M#0", "slow:V#0", "ret:N#0", "fast:O#0", "fails:P#0"})
	if err != nil {
		t.Fatal(err)
	}
	if plan["M"].ForceReturn == nil || *plan["M"].ForceReturn != 7 {
		t.Fatalf("M: %+v", plan["M"])
	}
	if !plan["V"].ForceReturnVoid {
		t.Fatalf("V: %+v", plan["V"])
	}
	if plan["N"].OverrideReturn == nil || *plan["N"].OverrideReturn != 9 {
		t.Fatalf("N: %+v", plan["N"])
	}
	if plan["O"].DelayReturn != 11 {
		t.Fatalf("O: %+v", plan["O"])
	}
	if !plan["P"].CatchExceptions || plan["P"].CatchValue != 3 {
		t.Fatalf("P: %+v", plan["P"])
	}
}

func TestPlanForEnforceOrder(t *testing.T) {
	c := corpusWith(predicate.Predicate{
		ID: "order:A#0<B#0",
		Repair: predicate.Intervention{
			Kind: predicate.IvEnforceOrder, Methods: []string{"A", "B"}, Safe: true,
		},
	})
	plan, err := PlanFor(c, []predicate.ID{"order:A#0<B#0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan["A"].SignalAfter) != 1 || len(plan["B"].WaitBefore) != 1 {
		t.Fatalf("order plan malformed: %+v", plan)
	}
	if plan["A"].SignalAfter[0] != plan["B"].WaitBefore[0] {
		t.Fatal("signal and wait disagree")
	}
	// Malformed method count.
	bad := corpusWith(predicate.Predicate{
		ID:     "order:bad",
		Repair: predicate.Intervention{Kind: predicate.IvEnforceOrder, Methods: []string{"A"}},
	})
	if _, err := PlanFor(bad, []predicate.ID{"order:bad"}); err == nil {
		t.Fatal("1-method order intervention accepted")
	}
}

func TestPlanForGroup(t *testing.T) {
	c := corpusWith(predicate.Predicate{
		ID: "and(a,b)",
		Repair: predicate.Intervention{
			Kind: predicate.IvGroup, Safe: true,
			Parts: []predicate.Intervention{
				{Kind: predicate.IvLockMethods, Methods: []string{"A"}, Safe: true},
				{Kind: predicate.IvDelayReturn, Methods: []string{"B"}, Delay: 4, Safe: true},
			},
		},
	})
	plan, err := PlanFor(c, []predicate.ID{"and(a,b)"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan["A"].GlobalLocks) != 1 || plan["B"].DelayReturn != 4 {
		t.Fatalf("group plan malformed: %+v", plan)
	}
}

func TestPlanForErrors(t *testing.T) {
	c := corpusWith(predicate.Predicate{
		ID: "atom:x", Repair: predicate.Intervention{Kind: predicate.IvNone},
	})
	if _, err := PlanFor(c, []predicate.ID{"ghost"}); err == nil {
		t.Fatal("unknown predicate accepted")
	}
	if _, err := PlanFor(c, []predicate.ID{"atom:x"}); err == nil {
		t.Fatal("IvNone accepted")
	}
}

func TestPlanForMergesSameMethod(t *testing.T) {
	c := corpusWith(
		predicate.Predicate{ID: "race1", Repair: predicate.Intervention{
			Kind: predicate.IvLockMethods, Methods: []string{"M"}, Safe: true}},
		predicate.Predicate{ID: "race2", Repair: predicate.Intervention{
			Kind: predicate.IvLockMethods, Methods: []string{"M"}, Safe: true}},
	)
	plan, err := PlanFor(c, []predicate.ID{"race1", "race2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan["M"].GlobalLocks) != 2 {
		t.Fatalf("merged locks = %v, want both", plan["M"].GlobalLocks)
	}
}

// executorFixture builds a tiny failing program: Slow's conditional
// delay makes Check return 1, and Main crashes on that value.
func executorFixture(t *testing.T) (*sim.Program, *predicate.Corpus, *Executor) {
	t.Helper()
	p := sim.NewProgram("fixture", "Main")
	p.Globals["mode"] = 0
	p.AddFunc("Slow",
		sim.ReadGlobal{Var: "mode", Dst: "m"},
		sim.If{Cond: sim.Cond{A: sim.V("m"), Op: sim.EQ, B: sim.Lit(1)},
			Then: []sim.Op{sim.Sleep{Ticks: sim.Lit(60)}}},
	).SideEffectFree = true
	p.AddFunc("Check",
		sim.ReadGlobal{Var: "mode", Dst: "m"},
		sim.Return{Val: sim.V("m")},
	).SideEffectFree = true
	p.AddFunc("Main",
		sim.Random{Dst: "r", N: sim.Lit(2)},
		sim.If{Cond: sim.Cond{A: sim.V("r"), Op: sim.EQ, B: sim.Lit(0)},
			Then: []sim.Op{sim.WriteGlobal{Var: "mode", Src: sim.Lit(1)}}},
		sim.Call{Fn: "Slow"},
		sim.Call{Fn: "Check", Dst: "c"},
		sim.If{Cond: sim.Cond{A: sim.V("c"), Op: sim.EQ, B: sim.Lit(1)},
			Then: []sim.Op{sim.Throw{Kind: "Corrupt"}}},
	)
	set := &trace.Set{}
	var failSeeds []int64
	for seed := int64(1); seed <= 60; seed++ {
		e := sim.MustRun(p, seed, sim.RunOptions{})
		set.Executions = append(set.Executions, e)
		if e.Failed() {
			failSeeds = append(failSeeds, seed)
		}
	}
	if len(failSeeds) < 3 {
		t.Fatalf("fixture produced only %d failures", len(failSeeds))
	}
	cfg := predicate.Config{
		SideEffectFree: func(m string) bool { return m != "Main" },
		DurationMargin: 4,
	}
	corpus := predicate.Extract(set, cfg)
	exec := &Executor{Prog: p, Corpus: corpus, Seeds: failSeeds[:4], Cfg: cfg}
	for i := range set.Executions {
		if !set.Executions[i].Failed() {
			exec.Baselines = append(exec.Baselines, set.Executions[i])
		}
	}
	return p, corpus, exec
}

func TestExecutorStopsFailureOnCausalIntervention(t *testing.T) {
	_, corpus, exec := executorFixture(t)
	if corpus.Pred("ret:Check#0") == nil {
		t.Fatalf("fixture lacks ret:Check#0; have %v", corpus.IDs())
	}
	obs, err := exec.Intervene(context.Background(), []predicate.ID{"ret:Check#0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 4 {
		t.Fatalf("got %d observations, want 4", len(obs))
	}
	for _, o := range obs {
		if o.Failed {
			t.Fatal("overriding Check's return must stop the failure")
		}
		// The slow predicate keeps firing (the sleep still happens):
		// exactly what interventional pruning feeds on.
		if corpus.Pred("slow:Slow#0") != nil && !o.Observed.Has("slow:Slow#0") {
			t.Fatal("slow:Slow#0 should still be observed while the failure stops")
		}
	}
	if exec.RunsUsed != 4 {
		t.Fatalf("RunsUsed = %d, want 4", exec.RunsUsed)
	}
}

func TestExecutorKeepsFailureOnSpuriousIntervention(t *testing.T) {
	_, corpus, exec := executorFixture(t)
	if corpus.Pred("slow:Slow#0") == nil {
		t.Fatalf("fixture lacks slow:Slow#0; have %v", corpus.IDs())
	}
	obs, err := exec.Intervene(context.Background(), []predicate.ID{"slow:Slow#0"})
	if err != nil {
		t.Fatal(err)
	}
	anyFailed := false
	for _, o := range obs {
		if o.Failed {
			anyFailed = true
		}
		if o.Observed.Has("slow:Slow#0") {
			t.Fatal("intervened predicate must be pinned to false")
		}
	}
	if !anyFailed {
		t.Fatal("speeding up Slow must not repair the corrupt mode")
	}
}

func TestExecutorUnknownPredicate(t *testing.T) {
	_, _, exec := executorFixture(t)
	if _, err := exec.Intervene(context.Background(), []predicate.ID{"nope"}); err == nil {
		t.Fatal("unknown predicate accepted")
	}
}

// TestExecutorBatchMatchesSequential pins InterveneBatch to the
// per-group contract: a batch of groups produces exactly the
// observations sequential Intervene calls would, for any pool width,
// with the flattened replays accounted identically.
func TestExecutorBatchMatchesSequential(t *testing.T) {
	_, corpus, exec := executorFixture(t)
	groups := [][]predicate.ID{
		{"ret:Check#0"},
		{"slow:Slow#0"},
		{"ret:Check#0", "slow:Slow#0"},
	}
	for _, id := range []predicate.ID{"ret:Check#0", "slow:Slow#0"} {
		if corpus.Pred(id) == nil {
			t.Fatalf("fixture lacks %s", id)
		}
	}
	var want [][]core.Observation
	for _, g := range groups {
		obs, err := exec.Intervene(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, obs)
	}
	for _, workers := range []int{1, 8} {
		_, _, batchExec := executorFixture(t)
		batchExec.Workers = workers
		got, err := batchExec.InterveneBatch(context.Background(), groups)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: batch observations differ from sequential", workers)
		}
		if batchExec.RunsUsed != exec.RunsUsed {
			t.Fatalf("workers=%d: RunsUsed = %d, want %d", workers, batchExec.RunsUsed, exec.RunsUsed)
		}
	}
}

// TestExecutorConcurrentBatches exercises one executor from two
// goroutines at once — a single-group batch racing a two-group one —
// and checks both see consistent observations (run with -race).
func TestExecutorConcurrentBatches(t *testing.T) {
	_, _, exec := executorFixture(t)
	exec.Workers = 4
	var wg sync.WaitGroup
	results := make([][][]core.Observation, 2)
	errs := make([]error, 2)
	jobs := [][][]predicate.ID{
		{{"ret:Check#0"}},
		{{"slow:Slow#0"}, {"ret:Check#0", "slow:Slow#0"}},
	}
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = exec.InterveneBatch(context.Background(), jobs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	_, _, ref := executorFixture(t)
	for i, job := range jobs {
		for j, g := range job {
			obs, err := ref.Intervene(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(obs, results[i][j]) {
				t.Fatalf("job %d group %d: concurrent observations diverge", i, j)
			}
		}
	}
	if exec.RunsUsed != ref.RunsUsed {
		t.Fatalf("RunsUsed = %d concurrent vs %d sequential for the same 3 groups", exec.RunsUsed, ref.RunsUsed)
	}
}

// TestExecutorBatchEmpty covers the no-op batch.
func TestExecutorBatchEmpty(t *testing.T) {
	_, _, exec := executorFixture(t)
	out, err := exec.InterveneBatch(context.Background(), nil)
	if err != nil || out != nil {
		t.Fatalf("empty batch: %v %v", out, err)
	}
}
