package acdag

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"aid/internal/predicate"
	"aid/internal/trace"
)

// paperDAG builds the illustrative AC-DAG of Fig. 4(a):
// P1→P2→P3→(P4→P5→P6 | P7→(P8 | P9→P10) ... with P8→P11, P11→F, P10→F.
// We reproduce its reduction edges exactly.
func paperDAG(t *testing.T) *DAG {
	t.Helper()
	nodes := []predicate.ID{"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "P11", "F"}
	edges := [][2]predicate.ID{
		{"P1", "P2"}, {"P2", "P3"},
		{"P3", "P4"}, {"P4", "P5"}, {"P5", "P6"}, {"P6", "F"},
		{"P3", "P7"},
		{"P7", "P8"}, {"P8", "P11"},
		{"P7", "P9"}, {"P9", "P10"}, {"P10", "F"},
		{"P11", "F"},
	}
	d, err := FromEdges(nodes, edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return d
}

func TestFromEdgesClosure(t *testing.T) {
	d := paperDAG(t)
	if !d.Precedes("P1", "F") {
		t.Fatal("closure missing P1 ⇝ F")
	}
	if !d.Precedes("P3", "P11") {
		t.Fatal("closure missing P3 ⇝ P11")
	}
	if d.Precedes("P4", "P7") || d.Precedes("P7", "P4") {
		t.Fatal("parallel branches must be unordered")
	}
	if d.Precedes("F", "P1") {
		t.Fatal("reverse edge present")
	}
	if d.Precedes("P1", "P1") {
		t.Fatal("reflexive edge present")
	}
}

func TestFromEdgesRejectsCycles(t *testing.T) {
	_, err := FromEdges(
		[]predicate.ID{"a", "b", "c"},
		[][2]predicate.ID{{"a", "b"}, {"b", "c"}, {"c", "a"}},
	)
	if err == nil {
		t.Fatal("cycle accepted")
	}
	if _, err := FromEdges([]predicate.ID{"a"}, [][2]predicate.ID{{"a", "a"}}); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := FromEdges([]predicate.ID{"a"}, [][2]predicate.ID{{"a", "ghost"}}); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestAncestorsDescendants(t *testing.T) {
	d := paperDAG(t)
	anc := d.Ancestors("P11")
	sort.Slice(anc, func(i, j int) bool { return anc[i] < anc[j] })
	want := []predicate.ID{"P1", "P2", "P3", "P7", "P8"}
	if !reflect.DeepEqual(anc, want) {
		t.Fatalf("Ancestors(P11) = %v, want %v", anc, want)
	}
}

// levelsOf returns LevelsIndex(alive) keyed by the alive nodes' IDs.
func levelsOf(d *DAG, alive *NodeSet) map[predicate.ID]int {
	lvls := d.LevelsIndex(alive)
	levels := map[predicate.ID]int{}
	d.maskFor(alive).ForEach(func(i int) { levels[d.nodes[i]] = lvls[i] })
	return levels
}

// branchesOf returns BranchesIndex(junction, alive) keyed by junction
// member, at the ID edge.
func branchesOf(d *DAG, junction []predicate.ID, alive *NodeSet) map[predicate.ID][]predicate.ID {
	idx := make([]int, len(junction))
	for k, id := range junction {
		idx[k], _ = d.IndexOf(id)
	}
	out := map[predicate.ID][]predicate.ID{}
	for k, branch := range d.BranchesIndex(idx, alive) {
		for _, q := range branch {
			out[junction[k]] = append(out[junction[k]], d.nodes[q])
		}
	}
	return out
}

func TestLevels(t *testing.T) {
	d := paperDAG(t)
	levels := levelsOf(d, nil)
	wantLevels := map[predicate.ID]int{
		"P1": 0, "P2": 1, "P3": 2,
		"P4": 3, "P7": 3,
		"P5": 4, "P8": 4, "P9": 4,
		"P6": 5, "P10": 5, "P11": 5,
		"F": 6,
	}
	for id, want := range wantLevels {
		if levels[id] != want {
			t.Errorf("level(%s) = %d, want %d", id, levels[id], want)
		}
	}
}

func TestLevelsWithinSubset(t *testing.T) {
	d := paperDAG(t)
	alive := d.NewNodeSet("P1", "P3", "P7", "F")
	levels := levelsOf(d, alive)
	if len(levels) != 4 {
		t.Fatalf("levels over subset = %v", levels)
	}
	if levels["P1"] != 0 || levels["P3"] != 1 || levels["P7"] != 2 || levels["F"] != 3 {
		t.Fatalf("subset levels wrong: %v", levels)
	}
}

func TestTopoOrderStableAndShuffled(t *testing.T) {
	d := paperDAG(t)
	stable := d.TopoOrder(nil)
	if len(stable) != 12 {
		t.Fatalf("topo order has %d nodes", len(stable))
	}
	pos := map[predicate.ID]int{}
	for i, id := range stable {
		pos[id] = i
	}
	for _, e := range d.ReductionEdges() {
		if pos[e[0]] >= pos[e[1]] {
			t.Fatalf("topo order violates edge %v", e)
		}
	}
	// Shuffled order still respects precedence.
	rng := rand.New(rand.NewSource(3))
	shuffled := d.TopoOrder(rng)
	pos2 := map[predicate.ID]int{}
	for i, id := range shuffled {
		pos2[id] = i
	}
	for _, e := range d.ReductionEdges() {
		if pos2[e[0]] >= pos2[e[1]] {
			t.Fatalf("shuffled topo order violates edge %v", e)
		}
	}
}

func TestRoots(t *testing.T) {
	d := paperDAG(t)
	if got := d.Roots(); len(got) != 1 || got[0] != "P1" {
		t.Fatalf("Roots = %v, want [P1]", got)
	}
}

func TestBranchesAtJunction(t *testing.T) {
	d := paperDAG(t)
	// Junction after P3: members P4 and P7 (level 3).
	branches := branchesOf(d, []predicate.ID{"P4", "P7"}, nil)
	b1 := branches["P4"]
	sort.Slice(b1, func(i, j int) bool { return b1[i] < b1[j] })
	if !reflect.DeepEqual(b1, []predicate.ID{"P4", "P5", "P6"}) {
		t.Fatalf("B1 = %v, want [P4 P5 P6] (paper's B1)", b1)
	}
	b2 := branches["P7"]
	sort.Slice(b2, func(i, j int) bool { return b2[i] < b2[j] })
	want := []predicate.ID{"P10", "P11", "P7", "P8", "P9"}
	if !reflect.DeepEqual(b2, want) {
		t.Fatalf("B2 = %v, want %v (paper's B2 = P7∨P8∨P9∨P10∨P11)", b2, want)
	}
}

func TestBranchesExcludeDeadAndF(t *testing.T) {
	d := paperDAG(t)
	alive := d.NewNodeSet("P4", "P5", "P7", "P11", "F")
	branches := branchesOf(d, []predicate.ID{"P4", "P7"}, alive)
	b1 := branches["P4"]
	sort.Slice(b1, func(i, j int) bool { return b1[i] < b1[j] })
	if !reflect.DeepEqual(b1, []predicate.ID{"P4", "P5"}) {
		t.Fatalf("B1 restricted = %v", b1)
	}
	for _, q := range branches["P7"] {
		if q == "F" {
			t.Fatal("branch contains failure predicate")
		}
	}
}

func TestReductionEdges(t *testing.T) {
	d := paperDAG(t)
	edges := d.ReductionEdges()
	// The reduction must match the 13 input edges exactly (input had no
	// transitive extras).
	if len(edges) != 13 {
		t.Fatalf("reduction has %d edges, want 13: %v", len(edges), edges)
	}
	for _, e := range edges {
		if e[0] == "P1" && e[1] != "P2" {
			t.Fatalf("transitive edge %v survived reduction", e)
		}
	}
}

func TestDotOutput(t *testing.T) {
	d := paperDAG(t)
	dot := d.Dot()
	if !strings.Contains(dot, `"P1" -> "P2"`) || !strings.Contains(dot, "digraph") {
		t.Fatalf("Dot output malformed:\n%s", dot)
	}
}

// logCorpus builds a corpus with explicit per-execution stamps.
// stamps[execIdx][id] = occurrence start (end = start+1).
func logCorpus(outcomes []bool, preds []predicate.Predicate, stamps []map[predicate.ID]int64) *predicate.Corpus {
	c := predicate.NewCorpus()
	c.AddPred(predicate.FailurePredicate())
	for _, p := range preds {
		c.AddPred(p)
	}
	for i, failed := range outcomes {
		occ := make(map[predicate.ID]predicate.Occurrence)
		for id, s := range stamps[i] {
			occ[id] = predicate.Occurrence{Start: trace.Time(s), End: trace.Time(s + 1)}
		}
		c.AddLog(string(rune('a'+i)), failed, occ)
	}
	return c
}

func TestBuildFromCorpus(t *testing.T) {
	mk := func(id predicate.ID) predicate.Predicate {
		return predicate.Predicate{
			ID: id, Stamp: predicate.ByEnd,
			Repair: predicate.Intervention{Kind: predicate.IvLockMethods, Safe: true},
		}
	}
	preds := []predicate.Predicate{mk("A"), mk("B"), mk("C")}
	// Two failed logs: A before B in both; C's position flips, so C is
	// unordered with both.
	stamps := []map[predicate.ID]int64{
		{"A": 10, "B": 20, "C": 15, predicate.FailureID: 100},
		{"A": 10, "B": 20, "C": 25, predicate.FailureID: 100},
	}
	c := logCorpus([]bool{true, true}, preds, stamps)
	// Need one success so the corpus is sane (empty log).
	c.AddLog("s", false, map[predicate.ID]predicate.Occurrence{})

	d, report, err := Build(c, []predicate.ID{"A", "B", "C"}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Unsafe)+len(report.NotCounterfactual) != 0 {
		t.Fatalf("unexpected exclusions: %+v", report)
	}
	if !d.Precedes("A", "B") {
		t.Fatal("A should precede B")
	}
	if !d.Precedes("A", "C") {
		t.Fatal("A precedes C in both logs; edge expected")
	}
	if d.Precedes("B", "C") || d.Precedes("C", "B") {
		t.Fatal("B and C flip across logs and must be unordered")
	}
	for _, id := range []predicate.ID{"A", "B", "C"} {
		if !d.Precedes(id, predicate.FailureID) {
			t.Fatalf("%s should precede F", id)
		}
	}
}

func TestBuildExcludesUnsafeAndNonCounterfactual(t *testing.T) {
	safe := predicate.Predicate{
		ID: "safe", Stamp: predicate.ByEnd,
		Repair: predicate.Intervention{Kind: predicate.IvLockMethods, Safe: true},
	}
	unsafe := predicate.Predicate{
		ID: "unsafe", Stamp: predicate.ByEnd,
		Repair: predicate.Intervention{Kind: predicate.IvOverrideReturn, Safe: false},
	}
	flaky := predicate.Predicate{
		ID: "flaky", Stamp: predicate.ByEnd,
		Repair: predicate.Intervention{Kind: predicate.IvLockMethods, Safe: true},
	}
	stamps := []map[predicate.ID]int64{
		{"safe": 1, "unsafe": 2, "flaky": 3, predicate.FailureID: 100},
		{"safe": 1, "unsafe": 2, predicate.FailureID: 100}, // flaky missing
	}
	c := logCorpus([]bool{true, true}, []predicate.Predicate{safe, unsafe, flaky}, stamps)
	d, report, err := Build(c, []predicate.ID{"safe", "unsafe", "flaky"}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	has := func(id predicate.ID) bool {
		_, ok := d.IndexOf(id)
		return ok
	}
	if has("unsafe") {
		t.Fatal("unsafe predicate kept")
	}
	if has("flaky") {
		t.Fatal("non-counterfactual predicate kept")
	}
	if !has("safe") || !has(predicate.FailureID) {
		t.Fatal("expected nodes missing")
	}
	if len(report.Unsafe) != 1 || report.Unsafe[0] != "unsafe" {
		t.Fatalf("report.Unsafe = %v", report.Unsafe)
	}
	if len(report.NotCounterfactual) != 1 || report.NotCounterfactual[0] != "flaky" {
		t.Fatalf("report.NotCounterfactual = %v", report.NotCounterfactual)
	}
}

func TestBuildNoFailures(t *testing.T) {
	c := predicate.NewCorpus()
	c.AddPred(predicate.FailurePredicate())
	c.AddLog("s", false, map[predicate.ID]predicate.Occurrence{})
	if _, _, err := Build(c, nil, BuildOptions{}); err == nil {
		t.Fatal("Build without failures should error")
	}
}

func TestBuildUnknownCandidate(t *testing.T) {
	c := predicate.NewCorpus()
	c.AddPred(predicate.FailurePredicate())
	c.AddLog("f", true, map[predicate.ID]predicate.Occurrence{predicate.FailureID: {}})
	if _, _, err := Build(c, []predicate.ID{"ghost"}, BuildOptions{}); err == nil {
		t.Fatal("unknown candidate accepted")
	}
}

// Property: Build's precedence relation is a strict partial order
// (irreflexive, antisymmetric, transitive) for random stamp matrices.
func TestBuildProducesStrictPartialOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prop := func() bool {
		nPreds := 2 + rng.Intn(5)
		nLogs := 1 + rng.Intn(4)
		var preds []predicate.Predicate
		ids := make([]predicate.ID, nPreds)
		for i := 0; i < nPreds; i++ {
			ids[i] = predicate.ID(rune('A' + i))
			preds = append(preds, predicate.Predicate{
				ID: ids[i], Stamp: predicate.ByEnd,
				Repair: predicate.Intervention{Kind: predicate.IvLockMethods, Safe: true},
			})
		}
		stamps := make([]map[predicate.ID]int64, nLogs)
		outcomes := make([]bool, nLogs)
		for l := 0; l < nLogs; l++ {
			outcomes[l] = true
			stamps[l] = map[predicate.ID]int64{predicate.FailureID: 1000}
			for _, id := range ids {
				stamps[l][id] = int64(rng.Intn(20))
			}
		}
		c := logCorpus(outcomes, preds, stamps)
		d, _, err := Build(c, ids, BuildOptions{})
		if err != nil {
			return false
		}
		for _, a := range d.Nodes() {
			if d.Precedes(a, a) {
				return false
			}
			for _, b := range d.Nodes() {
				if a != b && d.Precedes(a, b) && d.Precedes(b, a) {
					return false
				}
				for _, cc := range d.Nodes() {
					if d.Precedes(a, b) && d.Precedes(b, cc) && !d.Precedes(a, cc) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFrontierIndex pins the junction walk Algorithm 2's branch
// pruning takes: the alive, unexcluded members at the minimum level.
func TestFrontierIndex(t *testing.T) {
	d := paperDAG(t)
	frontier := func(alive, exclude *NodeSet) []predicate.ID {
		var out []predicate.ID
		for _, i := range d.FrontierIndex(alive, exclude) {
			out = append(out, d.IDAt(i))
		}
		return out
	}
	alive := d.NewNodeSet("P3", "P4", "P7", "P8", "F")
	// No exclusions: P3 alone sits at the minimum level.
	if got := frontier(alive, nil); !reflect.DeepEqual(got, []predicate.ID{"P3"}) {
		t.Fatalf("frontier = %v, want [P3]", got)
	}
	// Excluding the walked P3 exposes the junction {P4, P7}; F is
	// excluded the way branchPrune always excludes it.
	exclude := d.NewNodeSet("P3", "F")
	if got := frontier(alive, exclude); !reflect.DeepEqual(got, []predicate.ID{"P4", "P7"}) {
		t.Fatalf("frontier(exclude P3) = %v, want [P4 P7]", got)
	}
	// Everything excluded: empty frontier terminates the walk.
	all := d.NewNodeSet("P3", "P4", "P7", "P8", "F")
	if got := frontier(alive, all); len(got) != 0 {
		t.Fatalf("fully excluded frontier = %v, want empty", got)
	}
}
