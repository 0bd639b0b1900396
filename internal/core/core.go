// Package core implements AID's causal path discovery: Algorithms 1–3
// of the paper (GIWP, Branch-Prune, Causal-Path-Discovery) plus the
// interventional pruning rule (Definition 2).
//
// Given an AC-DAG over fully-discriminative predicates and an Intervener
// that can re-execute the application with chosen predicates forced to
// their passing values, Discover returns the root cause, the causal path
// linking it to the failure, and the spurious predicates — counting how
// many intervention rounds were needed. Ablation options reproduce the
// paper's AID-P (no predicate pruning) and AID-P-B (no predicate or
// branch pruning) variants.
//
// The decision state is dense: candidates are AC-DAG node indices and
// the alive/cause/spurious/walked sets are bitsets (acdag.NodeSet), so
// every per-round query — frontier, branches, Definition 2's protection
// test, reachability pruning — is a word-parallel row intersection.
// Predicate IDs appear only at the edges: the Intervener contract, the
// scheduler's memo keys, and the Round/Result logs.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"aid/internal/acdag"
	"aid/internal/predicate"
	"aid/internal/rngfast"
)

// Observation is the outcome of one application execution under an
// intervention: whether the failure occurred and which predicates were
// observed.
type Observation struct {
	Failed bool
	// Observed holds the predicates that occurred. Its zero value marks
	// a missed run, one that produced no observation (see Missed).
	Observed PredSet
	// Confidence is the posterior of the round verdict this observation
	// supports, attached by the adaptive trial oracle (see
	// RobustIntervener); zero for plain interveners, whose observations
	// carry no uncertainty estimate.
	Confidence float64
}

// Missed reports that the run produced no observation: its replay was
// lost (quarantined, crashed or over budget), so it is evidence of
// nothing, not a run that observed no predicates.
func (o Observation) Missed() bool { return o.Observed.t == nil }

// Intervener re-executes the application with the given predicates
// forced to their values in successful executions ("repaired"). Because
// of runtime nondeterminism an intervener may execute several runs per
// round and return one Observation each; a single counter-example run
// suffices for pruning (§5.3, footnote 1). Implementations should honor
// ctx and return its error promptly when cancelled.
//
// Discover's scheduler assumes a plain Intervener's observations are a
// pure function of the forced set (true for inject.Executor, which
// replays fixed seeds): outcomes are memoized and group-testing
// deductions replace confirming retests. An intervener whose outcomes
// vary call-to-call (e.g. fresh randomized runs per round) must be
// wrapped in a RobustIntervener, which repeats trials until each
// verdict reaches a confidence bound; the scheduler then runs in
// robust mode (see NewScheduler).
type Intervener interface {
	Intervene(ctx context.Context, preds []predicate.ID) ([]Observation, error)
}

// Options selects the AID variant.
type Options struct {
	// BranchPruning enables Algorithm 2 before the group-intervention
	// phase. Disabled in the AID-P-B ablation.
	BranchPruning bool
	// PredicatePruning enables Definition 2's observation-based pruning
	// of non-intervened predicates. Disabled in AID-P and AID-P-B.
	PredicatePruning bool
	// Seed drives tie resolution in topological grouping and the random
	// branch choice at junctions.
	Seed int64
	// Scheduler, when non-nil, supplies an externally built (possibly
	// shared) intervention scheduler; Discover then intervenes through
	// it and ignores its own iv argument's scheduling. Sharing one
	// scheduler across ablation variants of the same deterministic
	// intervener lets later runs reuse earlier outcomes.
	Scheduler *Scheduler
	// OnRound, when non-nil, is invoked after each intervention round's
	// pruning has been applied (the Round's Confirmed field may still be
	// filled in afterwards; see OnConfirm) together with the scheduler's
	// provenance metadata for the round. Purely observational: it must
	// not mutate the discovery state.
	OnRound func(r Round, m RoundMeta)
	// OnConfirm, when non-nil, is invoked when a predicate is confirmed
	// causal.
	OnConfirm func(id predicate.ID)
}

// AIDOptions is the full algorithm (both prunings on).
func AIDOptions(seed int64) Options {
	return Options{BranchPruning: true, PredicatePruning: true, Seed: seed}
}

// AIDPOptions disables predicate pruning (the paper's AID-P).
func AIDPOptions(seed int64) Options {
	return Options{BranchPruning: true, PredicatePruning: false, Seed: seed}
}

// AIDPBOptions disables predicate and branch pruning (the paper's
// AID-P-B): adaptive group testing in topological order.
func AIDPBOptions(seed int64) Options {
	return Options{BranchPruning: false, PredicatePruning: false, Seed: seed}
}

// Round records one group intervention for reporting and analysis.
type Round struct {
	// Intervened lists the predicates forced in this round.
	Intervened []predicate.ID
	// Stopped reports whether the failure disappeared in every run.
	Stopped bool
	// Confirmed is the predicate confirmed causal this round ("" if
	// none). A persisted round may confirm by elimination: when its pool
	// provably contained a cause and the round's outcome left a single
	// candidate, that candidate is confirmed without a further
	// intervention (the deduction classic adaptive group testing gets
	// for free).
	Confirmed predicate.ID
	// Pruned lists predicates marked spurious as a consequence of this
	// round (intervened groups and Definition 2 victims).
	Pruned []predicate.ID
	// Phase labels the round "branch" or "giwp".
	Phase string
}

// Result is the outcome of causal path discovery.
type Result struct {
	// Path is the discovered causal path C0, …, Cn with Cn = F: the
	// confirmed causes in topological order, ending at the failure.
	Path []predicate.ID
	// Spurious lists predicates determined non-causal.
	Spurious []predicate.ID
	// Rounds is the intervention log; len(Rounds) is the paper's
	// intervention count.
	Rounds []Round
}

// Interventions returns the number of intervention rounds used.
func (r *Result) Interventions() int { return len(r.Rounds) }

// RootCause returns C0, or "" when no cause was confirmed.
func (r *Result) RootCause() predicate.ID {
	if len(r.Path) <= 1 {
		return ""
	}
	return r.Path[0]
}

// PruningStats measures the empirical discard rates of §6: S1, the
// average number of predicates discarded (pruned or confirmed) per
// intervention round, and S2, the average discarded per confirmed
// cause. Theorem 2 lower-bounds CPD's interventions by
// N/(N+D·S1)·log₂C(N,D) and Theorem 3 upper-bounds AID's by
// D·log₂N − D(D−1)S2/(2N).
func (r *Result) PruningStats() (s1, s2 float64) {
	if len(r.Rounds) == 0 {
		return 0, 0
	}
	discarded := 0
	causes := 0
	for _, round := range r.Rounds {
		discarded += len(round.Pruned)
		if round.Confirmed != "" {
			discarded++
			causes++
		}
	}
	s1 = float64(discarded) / float64(len(r.Rounds))
	if causes > 0 {
		s2 = float64(discarded) / float64(causes)
	}
	return s1, s2
}

// discoverer carries the shared state of one discovery run. Candidates
// are dense AC-DAG node indices; the classification sets are bitsets.
type discoverer struct {
	ctx   context.Context
	dag   *acdag.DAG
	sched *Scheduler
	opts  Options
	rng   *rand.Rand
	fIdx  int
	alive *acdag.NodeSet // candidate predicates (never F)
	// aliveAndF mirrors alive plus F — the subgraph every level
	// computation restricts to, maintained incrementally instead of
	// rebuilt per round.
	aliveAndF *acdag.NodeSet
	cause     *acdag.NodeSet
	spur      *acdag.NodeSet
	log       []Round
	// escalation, once set by an invariant repair, makes every further
	// intervention an escalated cache-bypassing retest: the cached
	// verdicts are what produced the broken state, so the remainder of
	// the run must not trust them.
	escalation int

	// byRank holds every node index in ID-rank order, fixed for the
	// run: materializing the alive set in ID order is then one filter
	// pass over it instead of a per-call sort.
	byRank []int
	// Per-round scratch, reused across rounds so the steady-state
	// discovery loop allocates only what escapes into the Result:
	// aliveBuf backs the pruning loops' alive snapshots, prunedBuf a
	// round's pruned nodes until Round.Pruned is made at their count,
	// intervenedSet and obsMasks the per-round node sets of the
	// counterfactual pruning rule, and levels and levelNeed a GIWP
	// round's pool levels.
	aliveBuf      []int
	prunedBuf     []int
	intervenedSet *acdag.NodeSet
	obsMasks      []*acdag.NodeSet
	levels        []int
	levelNeed     *acdag.NodeSet
	// nodesOf caches, per predicate table the observations were drawn
	// from, each entry's DAG node index (-1 when the predicate is not a
	// node): one table per intervener, plus one per imported memo
	// (ShareMemoTable).
	nodesOf map[*PredTable][]int32
}

// Discover runs causal path discovery (Algorithm 3) on the AC-DAG.
// All interventions flow through the intervention scheduler (see
// scheduler.go), which memoizes outcomes by forced-predicate set
// without affecting the Result.
// Cancelling ctx aborts the run before the next intervention round (and
// mid-round, through the Intervener) with ctx's error.
func Discover(ctx context.Context, dag *acdag.DAG, iv Intervener, opts Options) (*Result, error) {
	fIdx, ok := dag.IndexOf(predicate.FailureID)
	if !ok {
		return nil, fmt.Errorf("core: AC-DAG lacks the failure predicate")
	}
	sched := opts.Scheduler
	if sched == nil {
		sched = NewScheduler(iv, SchedulerConfig{})
	}
	d := &discoverer{
		ctx:       ctx,
		dag:       dag,
		sched:     sched,
		opts:      opts,
		rng:       rngfast.New(opts.Seed),
		fIdx:      fIdx,
		alive:     dag.NewNodeSet(),
		aliveAndF: dag.NewNodeSet(predicate.FailureID),
		cause:     dag.NewNodeSet(),
		spur:      dag.NewNodeSet(),

		byRank:        make([]int, dag.Len()),
		intervenedSet: dag.NewNodeSet(),
		levels:        make([]int, dag.Len()),
		levelNeed:     dag.NewNodeSet(),
	}
	// IDRank is a permutation of the dense indices, so inverting it
	// yields the indices in ID order.
	for i := 0; i < dag.Len(); i++ {
		d.byRank[dag.IDRank(i)] = i
	}
	for i := 0; i < dag.Len(); i++ {
		if i == fIdx {
			continue
		}
		// Predicates with no path to the failure cannot be causes
		// (Kafka case study: 30 of 72 predicates were discarded this
		// way before any intervention).
		if !dag.PrecedesIndex(i, fIdx) {
			d.spur.AddIndex(i)
			continue
		}
		d.alive.AddIndex(i)
		d.aliveAndF.AddIndex(i)
	}

	// Predicates discarded for lacking a path to F are structurally
	// spurious: no amount of retesting can revive them, so the robust
	// restart guard below must not resurrect them.
	structural := d.spur.Clone()

	// The top-level pool is NOT known-positive even in robust mode
	// (matching the deterministic path exactly, so a zero-noise robust
	// stack replays byte-identical rounds); a no-cause outcome is
	// instead caught by the restart guard below.
	if opts.BranchPruning {
		if err := d.branchPrune(); err != nil {
			return d.result(), err
		}
	}
	if _, _, err := d.giwp(d.aliveSorted(), false); err != nil {
		return d.result(), err
	}
	if d.sched.Robust() && d.cause.Len() == 0 {
		// Full-restart guard (once per discovery): no cause confirmed
		// at all, so some verdict along the way was noise — branch
		// pruning may have discarded the causal branch on a forged
		// outcome, which the giwp-level repair cannot see. Resurrect
		// every non-structural spurious predicate and rerun giwp with
		// escalated, cache-bypassing retests.
		if err := d.restartEscalated(structural); err != nil {
			return d.result(), err
		}
	}
	return d.result(), nil
}

// result assembles the Result from the current discovery state. On an
// error path it is the partial result: the causes confirmed so far, the
// spurious set, and the rounds log up to the failing round — enough for
// callers (daemon sessions, progress reporting) to account for the work
// done instead of losing it to the error.
func (d *discoverer) result() *Result {
	res := &Result{Rounds: d.log}
	res.Path = d.topoSorted(d.cause)
	res.Path = append(res.Path, predicate.FailureID)
	res.Spurious = d.topoSorted(d.spur)
	return res
}

// restartEscalated is the robust full-restart guard: revive every
// spurious predicate that was not structurally discarded and rerun the
// group-intervention phase with escalated retests. Fires at most once
// per discovery; its rounds append to the same log.
func (d *discoverer) restartEscalated(structural *acdag.NodeSet) error {
	var revive []int
	d.spur.ForEachIndex(func(i int) {
		if !structural.HasIndex(i) {
			revive = append(revive, i)
		}
	})
	if len(revive) == 0 {
		return nil
	}
	for _, i := range revive {
		d.spur.RemoveIndex(i)
		d.alive.AddIndex(i)
		d.aliveAndF.AddIndex(i)
	}
	d.escalation = 1
	_, _, err := d.giwp(d.aliveSorted(), true)
	return err
}

// aliveSorted returns the alive candidate indices in ID order as a
// fresh slice — the form for giwp pools, which live across the
// recursion. It filters the precomputed rank order instead of sorting.
func (d *discoverer) aliveSorted() []int {
	out := make([]int, 0, d.alive.Len())
	for _, i := range d.byRank {
		if d.alive.HasIndex(i) {
			out = append(out, i)
		}
	}
	return out
}

// aliveByRank is aliveSorted into the shared scratch buffer, for the
// per-round pruning loops that consume the snapshot before the next
// round; invalid after the next aliveByRank call.
func (d *discoverer) aliveByRank() []int {
	out := d.aliveBuf[:0]
	for _, i := range d.byRank {
		if d.alive.HasIndex(i) {
			out = append(out, i)
		}
	}
	d.aliveBuf = out
	return out
}

// idsOf maps dense indices to predicate IDs, preserving order.
func (d *discoverer) idsOf(idxs []int) []predicate.ID {
	out := make([]predicate.ID, len(idxs))
	for k, i := range idxs {
		out[k] = d.dag.IDAt(i)
	}
	return out
}

// topoSorted orders a node set by AC-DAG topological level, then ID.
func (d *discoverer) topoSorted(set *acdag.NodeSet) []predicate.ID {
	var out []int
	set.ForEachIndex(func(i int) { out = append(out, i) })
	levels := d.dag.LevelsIndex(nil)
	slices.SortFunc(out, func(a, b int) int {
		if levels[a] != levels[b] {
			return levels[a] - levels[b]
		}
		return d.dag.IDRank(a) - d.dag.IDRank(b)
	})
	return d.idsOf(out)
}

// intervene performs one group-intervention round through the scheduler
// and applies both pruning rules. It returns whether the failure
// stopped.
func (d *discoverer) intervene(group []int, phase string) (bool, error) {
	if err := d.ctx.Err(); err != nil {
		return false, err
	}
	preds := d.idsOf(group)
	obs, meta, err := d.sched.Outcome(d.ctx, Request{Preds: preds, Escalation: d.escalation})
	if err != nil {
		return false, fmt.Errorf("core: intervention on %v: %w", preds, err)
	}
	if len(obs) == 0 {
		return false, fmt.Errorf("core: intervention on %v returned no observations", preds)
	}
	stopped := true
	for _, o := range obs {
		if o.Failed {
			stopped = false
			break
		}
	}
	// The round keeps preds: the scheduler copies what it memoizes, and
	// neither interveners nor OnRound callbacks modify a request's group.
	round := Round{
		Intervened: preds,
		Stopped:    stopped,
		Phase:      phase,
	}
	intervened := d.intervenedSet.Clear()
	for _, i := range group {
		intervened.AddIndex(i)
	}
	pruned := d.prunedBuf[:0]
	// Definition 2, first rule: intervened predicates are spurious if
	// some intervening run still failed.
	if !stopped {
		for _, i := range group {
			if d.alive.HasIndex(i) {
				d.markSpurious(i)
				pruned = append(pruned, i)
			}
		}
	}
	// Definition 2, second rule: a non-intervened predicate that does
	// not precede any intervened one is pruned on a counterfactual
	// violation with F in any intervening run. The per-candidate loop is
	// bitset-only: each observation's bits are carried onto node sets
	// once per round through its table's node translation, and the
	// protection test is one word-parallel row intersection.
	if d.opts.PredicatePruning {
		for len(d.obsMasks) < len(obs) {
			d.obsMasks = append(d.obsMasks, d.dag.NewNodeSet())
		}
		masks := d.obsMasks[:len(obs)]
		for k, o := range obs {
			m := masks[k].Clear()
			nodes := d.tableNodes(o.Observed.t)
			o.Observed.bits.ForEach(func(i int) {
				if j := nodes[i]; j >= 0 {
					m.AddIndex(int(j))
				}
			})
		}
		for _, q := range d.aliveByRank() {
			if intervened.HasIndex(q) {
				continue
			}
			// Protected: q precedes some intervened predicate.
			if d.dag.ReachesAny(q, intervened) {
				continue
			}
			for k, o := range obs {
				if (masks[k].HasIndex(q) && !o.Failed) || (!masks[k].HasIndex(q) && o.Failed) {
					d.markSpurious(q)
					pruned = append(pruned, q)
					break
				}
			}
		}
	}
	d.prunedBuf = pruned
	if len(pruned) > 0 {
		round.Pruned = d.idsOf(pruned)
	}
	d.log = append(d.log, round)
	if d.opts.OnRound != nil {
		d.opts.OnRound(round, meta)
	}
	return stopped, nil
}

// tableNodes returns the DAG node index of each entry of t (-1 for a
// predicate that is not a node), built on first sight of the table.
func (d *discoverer) tableNodes(t *PredTable) []int32 {
	if t == nil {
		return nil
	}
	nodes, ok := d.nodesOf[t]
	if !ok {
		nodes = make([]int32, len(t.ids))
		for i, id := range t.ids {
			nodes[i] = -1
			if j, ok := d.dag.IndexOf(id); ok {
				nodes[i] = int32(j)
			}
		}
		if d.nodesOf == nil {
			d.nodesOf = map[*PredTable][]int32{}
		}
		d.nodesOf[t] = nodes
	}
	return nodes
}

func (d *discoverer) markSpurious(i int) {
	d.alive.RemoveIndex(i)
	d.aliveAndF.RemoveIndex(i)
	d.spur.AddIndex(i)
}

func (d *discoverer) markCause(i int) {
	d.alive.RemoveIndex(i)
	d.aliveAndF.RemoveIndex(i)
	d.cause.AddIndex(i)
	id := d.dag.IDAt(i)
	if n := len(d.log); n > 0 && d.log[n-1].Confirmed == "" {
		d.log[n-1].Confirmed = id
	}
	if d.opts.OnConfirm != nil {
		d.opts.OnConfirm(id)
	}
}

// giwp is Algorithm 1: Group Intervention With Pruning over the pool,
// restricted at each step to predicates still alive.
//
// positive carries the classic adaptive-group-testing invariant: a pool
// entered because intervening on all of it stopped the failure provably
// contains a cause. When elimination then leaves a single alive
// candidate, it is confirmed by deduction — no round spent. The
// pre-scheduler loop retested that last candidate, and that retest is
// exactly the wasted round that pushed single-thread chains to N+2
// interventions (ROADMAP: Generate seed 97 at MaxThreads=1); the
// deduction restores the ≤ N+1 linear bound.
func (d *discoverer) giwp(pool []int, positive bool) (causes, spurious []int, err error) {
	// In robust mode a positive pool's entry membership is snapshotted:
	// if the pool exhausts without confirming a cause, the
	// known-positive invariant was violated — some verdict that pruned
	// a member was noise — and the members are revived for one
	// escalated retry.
	var entryPool []int
	repaired := false
	if positive && d.sched.Robust() {
		entryPool = append([]int(nil), pool...)
	}
	for {
		pool = d.filterAlive(pool)
		if len(pool) == 0 {
			if entryPool != nil && len(causes) == 0 && !repaired {
				var revived []int
				for _, i := range entryPool {
					if d.spur.HasIndex(i) {
						d.spur.RemoveIndex(i)
						d.alive.AddIndex(i)
						d.aliveAndF.AddIndex(i)
						revived = append(revived, i)
					}
				}
				if len(revived) > 0 {
					repaired = true
					d.escalation = 1
					pool = entryPool
					continue
				}
			}
			return causes, spurious, nil
		}
		if positive && len(pool) == 1 {
			// Deduced confirmation: the pool contains a cause and every
			// other candidate has been eliminated. In robust mode the
			// positive premise carries the trial oracle's confidence
			// bound, and the known-positive repair above catches the
			// residue.
			d.markCause(pool[0])
			causes = append(causes, pool[0])
			return causes, spurious, nil
		}
		// Only the pool's levels are read, and they depend only on its
		// alive ancestry.
		d.dag.LevelsAmong(pool, d.aliveAndF, d.levelNeed, d.levels)
		ordered := d.topoOrderPool(pool, d.levels)
		half := ordered[:(len(ordered)+1)/2] // first ⌈n/2⌉ in topo order
		stopped, err := d.intervene(half, "giwp")
		if err != nil {
			return nil, nil, err
		}
		if stopped {
			if len(half) == 1 {
				d.markCause(half[0])
				causes = append(causes, half[0])
			} else {
				c, x, err := d.giwp(half, true)
				if err != nil {
					return nil, nil, err
				}
				causes = append(causes, c...)
				spurious = append(spurious, x...)
			}
			// The cause the stopped half contained is now classified; the
			// remaining pool's status is unknown again.
			positive = false
		} else {
			spurious = append(spurious, half...)
		}
	}
}

func (d *discoverer) filterAlive(pool []int) []int {
	out := pool[:0:0]
	for _, p := range pool {
		if d.alive.HasIndex(p) {
			out = append(out, p)
		}
	}
	return out
}

// topoOrderPool orders the pool by topological level within the alive
// graph (levels as computed by the caller for this round), resolving
// ties randomly (Algorithm 1, line 4).
func (d *discoverer) topoOrderPool(pool []int, levels []int) []int {
	// The result escapes into the giwp recursion (halves become child
	// pools), so it is a fresh slice, not scratch. The pre-shuffle sort
	// is by IDRank — a permutation, tie-free — so the unstable sort is
	// deterministic and the rng consumes the exact sequence it always
	// did; the post-shuffle sort is stable so equal levels keep the
	// shuffled order.
	out := append([]int(nil), pool...)
	slices.SortFunc(out, func(i, j int) int { return d.dag.IDRank(i) - d.dag.IDRank(j) })
	d.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	slices.SortStableFunc(out, func(i, j int) int { return levels[i] - levels[j] })
	return out
}

// branchPrune is Algorithm 2: walk the AC-DAG by topological level; at
// each junction, binary-search the branches with group interventions
// until one survives, pruning the rest; remove nodes no longer
// reachable from the walked chain. The walk reduces the alive set to an
// approximate causal chain.
func (d *discoverer) branchPrune() error {
	walked := d.dag.NewNodeSet()
	// exclude mirrors walked (plus F) for the frontier query; it is
	// maintained incrementally rather than rebuilt per round.
	exclude := d.dag.NewNodeSet(predicate.FailureID)
	// reached accumulates the walked chain plus everything it precedes
	// (one word-parallel row union per walked node), so the per-round
	// unreachability sweep below is a single fused alive \ reached word
	// loop instead of an ancestor-row intersection per alive node.
	reached := d.dag.NewNodeSet()
	walk := func(i int) {
		walked.AddIndex(i)
		exclude.AddIndex(i)
		reached.AddIndex(i)
		d.dag.OrDescendantsInto(i, reached)
	}
	for {
		// The per-round candidate frontier: the lowest-level unwalked
		// members of the alive subgraph (level computation runs
		// word-parallel over the AC-DAG's bitset rows). Members at one
		// level are mutually unordered — the junction of Algorithm 2.
		members := d.dag.FrontierIndex(d.aliveAndF, exclude)
		if len(members) == 0 {
			return nil
		}

		if len(members) == 1 {
			walk(members[0])
		} else {
			if err := d.resolveJunction(members); err != nil {
				return err
			}
		}

		// Remove nodes unreachable from the walked chain (Algorithm 2,
		// lines 16–18): once part of the chain is fixed, nodes that no
		// walked predicate precedes cannot lie on the causal path —
		// exactly alive \ reached, one fused word loop. The doomed
		// snapshot goes through the scratch buffer because markSpurious
		// mutates alive mid-sweep.
		if walked.Len() > 0 {
			doomed := d.aliveBuf[:0]
			d.alive.ForEachIndexAndNot(reached, func(u int) {
				doomed = append(doomed, u)
			})
			d.aliveBuf = doomed
			for _, u := range doomed {
				d.markSpurious(u)
			}
		}
	}
}

// resolveJunction eliminates all but one branch at a junction using
// ⌈log₂ B⌉ group interventions: a stopped failure proves the causal
// path enters the tested half (the others are spurious); a persisting
// failure proves the tested half spurious. The surviving branch is not
// separately confirmed — the GIWP phase will vet its predicates.
func (d *discoverer) resolveJunction(members []int) error {
	dense := d.dag.BranchesIndex(members, d.aliveAndF)
	branches := make(map[int][]int, len(members))
	for k, m := range members {
		branches[m] = dense[k]
	}
	heads := append([]int(nil), members...)
	// The paper intervenes on a randomly chosen branch first.
	d.rng.Shuffle(len(heads), func(i, j int) { heads[i], heads[j] = heads[j], heads[i] })

	pruneBranches := func(hs []int) {
		for _, h := range hs {
			for _, p := range branches[h] {
				if d.alive.HasIndex(p) {
					d.markSpurious(p)
					if n := len(d.log); n > 0 {
						d.log[n-1].Pruned = append(d.log[n-1].Pruned, d.dag.IDAt(p))
					}
				}
			}
		}
	}

	// collect assembles the alive predicates of the given heads'
	// branches — the group a junction round intervenes on, in ID order.
	collect := func(hs []int) []int {
		var group []int
		for _, h := range hs {
			for _, p := range branches[h] {
				if d.alive.HasIndex(p) {
					group = append(group, p)
				}
			}
		}
		slices.SortFunc(group, func(i, j int) int { return d.dag.IDRank(i) - d.dag.IDRank(j) })
		return group
	}

	for len(heads) > 1 {
		half := heads[:(len(heads)+1)/2]
		rest := heads[(len(heads)+1)/2:]
		group := collect(half)
		if len(group) == 0 {
			heads = rest
			continue
		}
		stopped, err := d.intervene(group, "branch")
		if err != nil {
			return err
		}
		if stopped {
			// The causal path passes through the tested half; the
			// untested branches are spurious (at most one branch can be
			// causal under the single-causal-path assumption).
			pruneBranches(rest)
			heads = half
		} else {
			pruneBranches(half)
			heads = rest
		}
		// Predicates pruned by Definition 2 during this round may have
		// emptied surviving branches; the loop re-filters via d.alive.
	}
	return nil
}
