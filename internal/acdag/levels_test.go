package acdag

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"aid/internal/predicate"
)

// The level kernels' reference: levels by the longest-chain DP over the
// alive nodes sorted by alive-ancestor count, then ID (one popcount per
// node and a sort per call), and the frontier, levels and topological
// order read from it, as the DAG computed them before it fixed one
// topological order at construction.

func refLevels(d *DAG, alive bitset) []int {
	type rec struct{ i, rank int }
	var order []rec
	alive.ForEach(func(i int) {
		anc := d.pred[i].Clone()
		anc.AndWith(alive)
		order = append(order, rec{i, anc.Count()})
	})
	slices.SortFunc(order, func(a, b rec) int {
		if a.rank != b.rank {
			return a.rank - b.rank
		}
		return d.idRank[a.i] - d.idRank[b.i]
	})
	lvls := make([]int, len(d.nodes))
	for _, r := range order {
		lvl := 0
		d.pred[r.i].ForEachAnd(alive, func(a int) {
			if l := lvls[a] + 1; l > lvl {
				lvl = l
			}
		})
		lvls[r.i] = lvl
	}
	return lvls
}

func refFrontier(d *DAG, alive, exclude *NodeSet) []int {
	mask := d.maskFor(alive)
	lvls := refLevels(d, mask)
	minLevel := -1
	var out []int
	mask.ForEach(func(i int) {
		if exclude != nil && exclude.bits.Has(i) {
			return
		}
		switch {
		case minLevel == -1 || lvls[i] < minLevel:
			minLevel = lvls[i]
			out = append(out[:0], i)
		case lvls[i] == minLevel:
			out = append(out, i)
		}
	})
	sort.Slice(out, func(a, b int) bool { return d.idRank[out[a]] < d.idRank[out[b]] })
	return out
}

func refTopoOrder(d *DAG, alive *NodeSet, rng *rand.Rand) []predicate.ID {
	mask := d.maskFor(alive)
	lvls := refLevels(d, mask)
	var idxs []int
	mask.ForEach(func(i int) { idxs = append(idxs, i) })
	slices.SortFunc(idxs, func(a, b int) int {
		if lvls[a] != lvls[b] {
			return lvls[a] - lvls[b]
		}
		return d.idRank[a] - d.idRank[b]
	})
	out := make([]predicate.ID, len(idxs))
	for i, ix := range idxs {
		out[i] = d.nodes[ix]
	}
	if rng != nil {
		for start := 0; start < len(out); {
			end := start + 1
			for end < len(idxs) && lvls[idxs[end]] == lvls[idxs[start]] {
				end++
			}
			group := out[start:end]
			rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
			start = end
		}
	}
	return out
}

// randomDAG builds a closed DAG by FromEdges: n nodes, named so that ID
// order differs from index order, with random edges along a hidden
// order plus F, which every other node precedes (as in an AC-DAG).
func randomDAG(t *testing.T, r *rand.Rand, n int, density float64) *DAG {
	t.Helper()
	nodes := []predicate.ID{predicate.FailureID}
	for i := 0; i < n; i++ {
		nodes = append(nodes, predicate.ID(fmt.Sprintf("p%03d", r.Intn(1000)*100+i)))
	}
	hidden := r.Perm(n)
	var edges [][2]predicate.ID
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if r.Float64() < density {
				edges = append(edges, [2]predicate.ID{nodes[1+hidden[a]], nodes[1+hidden[b]]})
			}
		}
		edges = append(edges, [2]predicate.ID{nodes[1+a], predicate.FailureID})
	}
	d, err := FromEdges(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// randomSet returns a random subset of d's nodes, each kept with
// probability p.
func randomSet(r *rand.Rand, d *DAG, p float64) *NodeSet {
	s := d.NewNodeSet()
	for i := range d.nodes {
		if r.Float64() < p {
			s.AddIndex(i)
		}
	}
	return s
}

// ancestryOf is the member set's alive ancestry: every alive member and
// every alive ancestor of a member, computed from the ancestor rows
// alone.
func ancestryOf(d *DAG, members []int, alive bitset) bitset {
	out := make(bitset, len(alive))
	for _, m := range members {
		for a := range d.nodes {
			if (a == m || d.pred[m].Has(a)) && alive.Has(a) {
				out.SetInCap(a)
			}
		}
	}
	return out
}

// levelScratch is one lvls buffer shared by every LevelsAmong check of
// the differential, sized for its largest DAG: entries from earlier
// DAGs and calls stay in it, so a call that read an entry outside its
// members' alive ancestry would read a stale level.
var levelScratch = make([]int, 128)

// checkLevelsAmong compares LevelsAmong over members with the reference
// levels want (within alive) on the members' alive ancestry, and
// requires every other entry of the shared scratch to be left as it
// was. Entries outside the ancestry are first set to a level no DAG
// here reaches, so reading one would show in the result.
func checkLevelsAmong(t *testing.T, d *DAG, members []int, alive *NodeSet, need *NodeSet, want []int, what string) {
	t.Helper()
	lvls := levelScratch[:len(d.nodes)]
	anc := ancestryOf(d, members, d.maskFor(alive))
	for i := range lvls {
		if !anc.Has(i) {
			lvls[i] = 1000 + i
		}
	}
	d.LevelsAmong(members, alive, need, lvls)
	for i := range lvls {
		switch {
		case anc.Has(i) && lvls[i] != want[i]:
			t.Fatalf("%s: LevelsAmong(%v)[%s] = %d, reference %d", what, members, d.nodes[i], lvls[i], want[i])
		case !anc.Has(i) && lvls[i] != 1000+i:
			t.Fatalf("%s: LevelsAmong(%v) wrote %s, outside the members' alive ancestry", what, members, d.nodes[i])
		}
	}
}

// TestLevelsMatchSortedReference pins the level kernels to the
// sort-based reference on random closed DAGs: LevelsIndex,
// TopoOrderWithin (ID-ordered and shuffled), FrontierIndex and
// LevelsAmong, over all nodes and over random alive sets with random
// exclude sets, and along the walks branch pruning takes, where exclude
// is the walked chain plus F and alive loses nodes between rounds.
// LevelsAmong takes member sets closed under alive ancestors, arbitrary
// ones (alive or not) and a GIWP pool (alive members in ID order), into
// one scratch buffer reused across every call.
func TestLevelsMatchSortedReference(t *testing.T) {
	r := rand.New(rand.NewSource(20261018))
	frontiers, junctions, amongs := 0, 0, 0
	var need *NodeSet // LevelsAmong's scratch, reused across one DAG's checks
	check := func(d *DAG, alive, exclude *NodeSet, trial int) []int {
		t.Helper()
		mask := d.maskFor(alive)
		want := refLevels(d, mask)
		if need == nil || need.d != d {
			need = d.NewNodeSet()
		}
		var closed, arbitrary, pool []int
		ancestryOf(d, randomSet(r, d, 0.15).members(), mask).ForEach(func(i int) { closed = append(closed, i) })
		arbitrary = randomSet(r, d, 0.25).members()
		r.Shuffle(len(arbitrary), func(i, j int) { arbitrary[i], arbitrary[j] = arbitrary[j], arbitrary[i] })
		mask.ForEach(func(i int) {
			if r.Intn(3) == 0 {
				pool = append(pool, i)
			}
		})
		slices.SortFunc(pool, func(a, b int) int { return d.idRank[a] - d.idRank[b] })
		for _, m := range []struct {
			name    string
			members []int
		}{{"closed", closed}, {"arbitrary", arbitrary}, {"pool", pool}, {"empty", nil}} {
			checkLevelsAmong(t, d, m.members, alive, need, want, fmt.Sprintf("trial %d, %s members", trial, m.name))
			amongs++
		}
		got := d.LevelsIndex(alive)
		mask.ForEach(func(i int) {
			if got[i] != want[i] {
				t.Fatalf("trial %d: LevelsIndex[%s] = %d, reference %d", trial, d.nodes[i], got[i], want[i])
			}
		})
		if got, want := d.TopoOrderWithin(alive, nil), refTopoOrder(d, alive, nil); !slices.Equal(got, want) {
			t.Fatalf("trial %d: TopoOrderWithin = %v, reference %v", trial, got, want)
		}
		seed := r.Int63()
		if got, want := d.TopoOrderWithin(alive, rand.New(rand.NewSource(seed))), refTopoOrder(d, alive, rand.New(rand.NewSource(seed))); !slices.Equal(got, want) {
			t.Fatalf("trial %d: shuffled TopoOrderWithin = %v, reference %v", trial, got, want)
		}
		gotF, wantF := d.FrontierIndex(alive, exclude), refFrontier(d, alive, exclude)
		if !slices.Equal(gotF, wantF) {
			t.Fatalf("trial %d: FrontierIndex = %v, reference %v", trial, gotF, wantF)
		}
		frontiers++
		if len(gotF) > 1 {
			junctions++
		}
		return gotF
	}
	for trial := 0; trial < 300; trial++ {
		d := randomDAG(t, r, 1+r.Intn(70), []float64{0.02, 0.1, 0.3, 0.7}[trial%4])
		check(d, nil, nil, trial)
		check(d, nil, randomSet(r, d, 0.3), trial)
		for k := 0; k < 4; k++ {
			check(d, randomSet(r, d, 0.2+0.2*float64(k)), randomSet(r, d, 0.1*float64(k)), trial)
		}
		// A branch-pruning walk: walk one frontier member per round and
		// drop some alive nodes, until the frontier empties.
		alive := randomSet(r, d, 0.8)
		alive.Add(predicate.FailureID)
		exclude := d.NewNodeSet(predicate.FailureID)
		for {
			members := check(d, alive, exclude, trial)
			if len(members) == 0 {
				break
			}
			exclude.AddIndex(members[r.Intn(len(members))])
			for i := range d.nodes {
				if !exclude.HasIndex(i) && r.Intn(8) == 0 {
					alive.RemoveIndex(i)
				}
			}
		}
	}
	if junctions < frontiers/10 {
		t.Fatalf("%d of %d frontiers were junctions: the walks barely branch", junctions, frontiers)
	}
	t.Logf("%d frontiers, %d junctions, %d LevelsAmong calls", frontiers, junctions, amongs)
}

// members returns the set's dense indices in ascending order.
func (s *NodeSet) members() []int {
	var out []int
	s.ForEachIndex(func(i int) { out = append(out, i) })
	return out
}

// TestLevelsAmongAllocs pins a steady-state GIWP levels call, a pool's
// levels within the alive set into the round's scratch, to zero
// allocations.
func TestLevelsAmongAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := randomDAG(t, r, 90, 0.1)
	alive := randomSet(r, d, 0.4)
	alive.Add(predicate.FailureID)
	var pool []int
	alive.ForEachIndex(func(i int) {
		if d.nodes[i] != predicate.FailureID && len(pool) < 8 {
			pool = append(pool, i)
		}
	})
	need, lvls := d.NewNodeSet(), make([]int, d.Len())
	if n := testing.AllocsPerRun(100, func() { d.LevelsAmong(pool, alive, need, lvls) }); n != 0 {
		t.Fatalf("LevelsAmong allocates %v times per call, want 0", n)
	}
}
