// Package acdag builds and queries the Approximate Causal DAG (AC-DAG).
//
// The AC-DAG (§4 of the paper) over-approximates causality among
// fully-discriminative predicates using temporal precedence: an edge
// P1 → P2 means P1's representative timestamp precedes P2's in every
// failed execution where both appear. Temporal precedence is necessary
// for causality (absent feedback loops, which AID eliminates by mapping
// loop iterations to separate predicate instances), so the AC-DAG is
// guaranteed to contain every true causal edge; interventions later
// prune the spurious ones.
//
// Consistent strict precedence across a fixed log set is transitive and
// antisymmetric, so the relation is a strict partial order and the DAG
// is acyclic by construction; the stored relation is its own transitive
// closure.
//
// Nodes are dense indices internally (predicate IDs survive at the API
// edges: construction input, reports, DOT). Construction consumes the
// corpus's columnar store directly — the counterfactual filter is a
// maintained counter comparison, and pairwise precedence compares one
// dense key per node and failed log, as per-log order bitsets. Node-set
// arguments (alive/exclude sets threaded through discovery) are bitsets
// (NodeSet), so set queries run word-parallel end-to-end; topological
// levels follow one topological order fixed when the DAG is built.
package acdag

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"aid/internal/bitvec"
	"aid/internal/predicate"
	"aid/internal/trace"
)

// bitset is the local alias for the shared packed bit-vector.
type bitset = bitvec.Vec

// DAG is an immutable approximate causal DAG. Nodes are predicate IDs;
// Precedes is the transitive (closed) precedence relation, stored as
// row bitsets so closure and reachability run word-parallel.
type DAG struct {
	nodes  []predicate.ID
	idx    map[predicate.ID]int
	idRank []int    // idRank[i] = rank of nodes[i] in ID sort order
	prec   []bitset // prec[i] has j: node i consistently precedes node j
	pred   []bitset // transpose of prec, built by close()
	// topo is a topological order of the closed DAG, fixed by close():
	// nodes by ancestor count (an ancestor has fewer), then by ID.
	topo []int
	// levels are the topological levels over every node.
	levels []int
}

// NodeSet is a set of DAG nodes backed by one bitset — the
// alive/exclude currency of causal-path discovery. A nil *NodeSet
// passed to a query means "all nodes".
type NodeSet struct {
	d    *DAG
	bits bitset
}

// NewNodeSet returns a set over the DAG's nodes containing the given
// IDs; unknown IDs are ignored.
func (d *DAG) NewNodeSet(ids ...predicate.ID) *NodeSet {
	s := &NodeSet{d: d, bits: bitvec.New(len(d.nodes))}
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Add inserts the node with the given ID (unknown IDs are ignored) and
// returns the set for chaining.
func (s *NodeSet) Add(id predicate.ID) *NodeSet {
	if i, ok := s.d.idx[id]; ok {
		s.bits.SetInCap(i)
	}
	return s
}

// AddIndex inserts the node at the given dense index.
func (s *NodeSet) AddIndex(i int) *NodeSet {
	s.bits.SetInCap(i)
	return s
}

// RemoveIndex deletes the node at the given dense index.
func (s *NodeSet) RemoveIndex(i int) { s.bits.Unset(i) }

// HasIndex reports membership by dense index.
func (s *NodeSet) HasIndex(i int) bool { return s.bits.Has(i) }

// Len returns the number of members.
func (s *NodeSet) Len() int { return s.bits.Count() }

// Clone returns an independent copy.
func (s *NodeSet) Clone() *NodeSet {
	return &NodeSet{d: s.d, bits: s.bits.Clone()}
}

// Clear removes every member in place, keeping the backing words — the
// per-round scratch-set primitive, so discovery loops reuse one set
// instead of allocating a fresh one each round.
func (s *NodeSet) Clear() *NodeSet {
	s.bits.ClearFrom(0)
	return s
}

// ForEachIndex calls fn for every member index in ascending order.
func (s *NodeSet) ForEachIndex(fn func(i int)) { s.bits.ForEach(fn) }

// ForEachIndexAndNot calls fn for every member of s \ o in ascending
// order — one fused word loop, no materialized difference.
func (s *NodeSet) ForEachIndexAndNot(o *NodeSet, fn func(i int)) {
	for w, word := range s.bits {
		if w < len(o.bits) {
			word &^= o.bits[w]
		}
		base := w << 6
		for word != 0 {
			fn(base + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// maskFor resolves a possibly-nil set to its bitset (nil = all nodes).
// The result is shared storage: callers must not mutate it.
func (d *DAG) maskFor(s *NodeSet) bitset {
	if s == nil {
		return bitvec.Ones(len(d.nodes))
	}
	return s.bits
}

// BuildOptions configures DAG construction from a corpus. It has no
// fields: predicates whose intervention is unsafe or missing are always
// excluded, as the paper requires every AC-DAG node to be safely
// intervenable (§3.3).
type BuildOptions struct{}

// BuildReport records what construction excluded and why.
type BuildReport struct {
	// Unsafe predicates were dropped for lacking a safe intervention.
	Unsafe []predicate.ID
	// NotCounterfactual predicates were dropped for missing from some
	// failed execution (they cannot be counterfactual causes).
	NotCounterfactual []predicate.ID
}

// Build constructs the AC-DAG over the given candidate predicates
// (typically statdebug.FullyDiscriminative output) plus the failure
// predicate F. It requires at least one failed execution in the corpus.
//
// Build consumes the columnar corpus directly: the counterfactual
// filter compares each candidate's maintained failed-occurrence count
// against the corpus's failed-row count (O(1) per candidate), and the
// pairwise precedence policies run over dense occurrence arrays
// materialized once per node — no per-(pair, log) map probes. Every
// pair but two durational nodes compares one key per node and log
// (keyRows); durational–durational pairs take pairPrecedes's full rule.
func Build(c *predicate.Corpus, candidates []predicate.ID, opts BuildOptions) (*DAG, *BuildReport, error) {
	nFails := c.FailedCount()
	if nFails == 0 {
		return nil, nil, fmt.Errorf("acdag: corpus has no failed executions")
	}
	report := &BuildReport{}
	var nodes []predicate.ID
	seen := map[predicate.ID]bool{}
	consider := append([]predicate.ID{}, candidates...)
	consider = append(consider, predicate.FailureID)
	for _, id := range consider {
		if seen[id] {
			continue
		}
		seen[id] = true
		h, ok := c.HandleOf(id)
		if !ok {
			return nil, nil, fmt.Errorf("acdag: predicate %q not in corpus", id)
		}
		p := c.PredAt(h)
		if id != predicate.FailureID &&
			(p.Repair.Kind == predicate.IvNone || !p.Repair.Safe) {
			report.Unsafe = append(report.Unsafe, id)
			continue
		}
		if _, inFail := c.CountsAt(h); inFail != nFails {
			report.NotCounterfactual = append(report.NotCounterfactual, id)
			continue
		}
		nodes = append(nodes, id)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	// Dense per-node occurrence arrays over the failed rows, in
	// failed-row order; every node is counterfactual, so each array has
	// exactly one entry per failed execution.
	preds := make([]*predicate.Predicate, len(nodes))
	occ := make([][]predicate.Occurrence, len(nodes))
	for i, id := range nodes {
		h, _ := c.HandleOf(id)
		preds[i] = c.PredAt(h)
		occ[i] = c.FailedOccurrences(h)
	}
	rows := keyRows(preds, occ, nFails)
	for i := range nodes {
		if !preds[i].Kind.Durational() {
			continue
		}
		for j := range nodes {
			if j == i || !preds[j].Kind.Durational() {
				continue
			}
			rows[i].Unset(j)
			ok := true
			for f := 0; f < nFails && ok; f++ {
				ok = pairPrecedes(preds[i], preds[j], occ[i][f], occ[j][f])
			}
			if ok {
				rows[i].SetInCap(j)
			}
		}
	}
	return assemble(nodes, preds, rows), report, nil
}

// pointKey is what pairPrecedes compares of an occurrence of p against
// any node when p or the other is not durational: a durational
// predicate's window start, and otherwise its policy stamp.
func pointKey(p *predicate.Predicate, o predicate.Occurrence) trace.Time {
	if p.Kind.Durational() {
		return o.Start
	}
	return o.StampTime(p.Stamp)
}

// keyRows returns the precedence rows of the nodes under their keys
// (pointKey of occ[i][f], node i's occurrence in log f): i precedes j
// when i's key is smaller than j's in every log. Row i is the
// intersection, over the logs, of the nodes whose key in that log is
// larger than i's: per log, one sort of the nodes by key, then one
// word-parallel AND per node.
func keyRows(preds []*predicate.Predicate, occ [][]predicate.Occurrence, logs int) []bitset {
	n := len(preds)
	rows := make([]bitset, n)
	for i := range rows {
		rows[i] = bitvec.Ones(n)
	}
	k := make([]trace.Time, n) // the nodes' keys in the current log
	order := make([]int, n)
	larger := bitvec.New(n)
	for f := 0; f < logs; f++ {
		for i := range k {
			k[i] = pointKey(preds[i], occ[i][f])
		}
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(k[a], k[b]) })
		// From the largest key down, one group of equal keys at a time:
		// larger holds the nodes of every group above.
		larger.ClearFrom(0)
		for hi := n; hi > 0; {
			lo := hi - 1
			for lo > 0 && k[order[lo-1]] == k[order[hi-1]] {
				lo--
			}
			for _, i := range order[lo:hi] {
				rows[i].AndWith(larger)
			}
			for _, i := range order[lo:hi] {
				larger.SetInCap(i)
			}
			hi = lo
		}
	}
	return rows
}

// BuildRowOracle is the pre-columnar row-oriented builder, kept as the
// equivalence oracle (and the baseline of the corpus-scaling
// benchmark): candidates are filtered and ordered pairwise by probing
// ID-keyed occurrence maps per failed log, exactly as the row corpus
// did. lookup resolves predicate metadata; failLogs holds the failed
// executions' occurrence maps in corpus order.
func BuildRowOracle(lookup func(predicate.ID) *predicate.Predicate, failLogs []map[predicate.ID]predicate.Occurrence, candidates []predicate.ID, opts BuildOptions) (*DAG, *BuildReport, error) {
	if len(failLogs) == 0 {
		return nil, nil, fmt.Errorf("acdag: corpus has no failed executions")
	}
	report := &BuildReport{}
	var nodes []predicate.ID
	seen := map[predicate.ID]bool{}
	consider := append([]predicate.ID{}, candidates...)
	consider = append(consider, predicate.FailureID)
	for _, id := range consider {
		if seen[id] {
			continue
		}
		seen[id] = true
		p := lookup(id)
		if p == nil {
			return nil, nil, fmt.Errorf("acdag: predicate %q not in corpus", id)
		}
		if id != predicate.FailureID &&
			(p.Repair.Kind == predicate.IvNone || !p.Repair.Safe) {
			report.Unsafe = append(report.Unsafe, id)
			continue
		}
		counterfactual := true
		for _, l := range failLogs {
			if _, ok := l[id]; !ok {
				counterfactual = false
				break
			}
		}
		if !counterfactual {
			report.NotCounterfactual = append(report.NotCounterfactual, id)
			continue
		}
		nodes = append(nodes, id)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	preds := make([]*predicate.Predicate, len(nodes))
	for i, id := range nodes {
		preds[i] = lookup(id)
	}
	// The reference: pairPrecedes over every pair and log, one scalar
	// test at a time.
	rows := make([]bitset, len(nodes))
	for i := range nodes {
		rows[i] = bitvec.New(len(nodes))
		for j := range nodes {
			ok := i != j
			for f := 0; f < len(failLogs) && ok; f++ {
				ok = pairPrecedes(preds[i], preds[j], failLogs[f][nodes[i]], failLogs[f][nodes[j]])
			}
			if ok {
				rows[i].SetInCap(j)
			}
		}
	}
	return assemble(nodes, preds, rows), report, nil
}

// assemble runs the shared tail of construction over the pairwise
// precedence rows: durational cycle breaking and closure.
func assemble(nodes []predicate.ID, preds []*predicate.Predicate, rows []bitset) *DAG {
	d := newDAG(nodes, rows)
	dur := bitvec.New(len(nodes))
	for i := range nodes {
		if preds[i].Kind.Durational() {
			dur.SetInCap(i)
		}
	}
	// Every other rule reduces to comparing fixed per-log timestamps
	// (durational predicates count as points at their window start), so
	// cycles can only pass through durational–durational edges; breaking
	// those inside strongly connected components restores acyclicity
	// while preserving the point-rule edges (§4: a conservative
	// precedence heuristic only costs pruning power, never soundness).
	d.breakCycles(dur)
	d.close()
	return d
}

// pairPrecedes decides whether a precedes b in one log, implementing
// §4's pairwise precedence policies:
//
//   - durational vs durational (two ongoing conditions): on the same
//     thread, disjoint windows order by time and a nested window
//     precedes its encloser (the callee's slowness causes the
//     caller's — Case 1); on different threads only disjoint windows
//     order — concurrent overlapping slowness has no defensible
//     direction.
//   - durational vs instantaneous: the ongoing condition precedes
//     events that occur within or after its window, i.e. compare the
//     duration's start with the instant's stamp.
//   - instantaneous vs instantaneous: compare policy stamps.
func pairPrecedes(pa, pb *predicate.Predicate, oa, ob predicate.Occurrence) bool {
	da, db := pa.Kind.Durational(), pb.Kind.Durational()
	switch {
	case da && db:
		if oa.End < ob.Start {
			return true // disjoint, a first
		}
		if ob.End < oa.Start {
			return false
		}
		sameThread := oa.Thread == ob.Thread && oa.Thread != predicate.NoThread
		if !sameThread {
			return false
		}
		// Nested same-thread windows: inner precedes outer.
		aInB := oa.Start >= ob.Start && oa.End <= ob.End
		bInA := ob.Start >= oa.Start && ob.End <= oa.End
		if aInB && !bInA {
			return true
		}
		return false
	case da:
		return oa.Start < ob.StampTime(pb.Stamp)
	case db:
		return oa.StampTime(pa.Stamp) < ob.Start
	default:
		return oa.StampTime(pa.Stamp) < ob.StampTime(pb.Stamp)
	}
}

// breakCycles removes durational–durational edges (between members of
// dur) inside strongly connected components until the graph is
// acyclic; if a cycle somehow survives without such edges, all its
// edges drop (conservative fallback).
func (d *DAG) breakCycles(dur bitset) {
	durOnly := true
	for iter := 0; iter < len(d.nodes)+1; iter++ {
		comp := d.sccs()
		changed := false
		cyclic := false
		for u := 0; u < len(d.nodes); u++ {
			var drop []int
			d.prec[u].ForEach(func(v int) {
				if comp[u] != comp[v] {
					return
				}
				cyclic = true
				if !durOnly || dur.Has(u) && dur.Has(v) {
					drop = append(drop, v)
					changed = true
				}
			})
			for _, v := range drop {
				d.prec[u].Unset(v)
			}
		}
		if !cyclic {
			return
		}
		if !changed {
			// Fallback: no durational edges left to drop.
			durOnly = false
		}
	}
}

// sccs labels strongly connected components (Kosaraju).
func (d *DAG) sccs() []int {
	n := len(d.nodes)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	// Kosaraju: order by finish time on the forward graph, then label
	// components on the reverse graph (a transient transpose — d.pred is
	// only built once construction finishes).
	rev := bitvec.Transpose(d.prec, n)
	var order []int
	visited := make([]bool, n)
	var dfs1 func(u int)
	dfs1 = func(u int) {
		visited[u] = true
		d.prec[u].ForEach(func(v int) {
			if !visited[v] {
				dfs1(v)
			}
		})
		order = append(order, u)
	}
	for u := 0; u < n; u++ {
		if !visited[u] {
			dfs1(u)
		}
	}
	var dfs2 func(u, label int)
	dfs2 = func(u, label int) {
		comp[u] = label
		rev[u].ForEach(func(v int) {
			if comp[v] == -1 {
				dfs2(v, label)
			}
		})
	}
	label := 0
	for i := n - 1; i >= 0; i-- {
		if comp[order[i]] == -1 {
			dfs2(order[i], label)
			label++
		}
	}
	return comp
}

// FromEdges builds a DAG from explicit edges (used by synthetic worlds
// and tests); it computes the transitive closure and rejects cycles.
func FromEdges(nodes []predicate.ID, edges [][2]predicate.ID) (*DAG, error) {
	d := newDAG(append([]predicate.ID(nil), nodes...), nil)
	for _, e := range edges {
		i, ok1 := d.idx[e[0]]
		j, ok2 := d.idx[e[1]]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("acdag: edge %v references unknown node", e)
		}
		if i == j {
			return nil, fmt.Errorf("acdag: self-loop on %s", e[0])
		}
		d.prec[i].SetInCap(j)
	}
	d.close()
	for i := range d.nodes {
		if d.prec[i].Has(i) {
			return nil, fmt.Errorf("acdag: cycle through %s", d.nodes[i])
		}
	}
	return d, nil
}

// newDAG returns the DAG over nodes with the precedence rows prec, or
// with empty rows when prec is nil.
func newDAG(nodes []predicate.ID, prec []bitset) *DAG {
	d := &DAG{
		nodes: nodes,
		idx:   make(map[predicate.ID]int, len(nodes)),
		prec:  prec,
	}
	if prec == nil {
		d.prec = make([]bitset, len(nodes))
		for i := range d.prec {
			d.prec[i] = bitvec.New(len(nodes))
		}
	}
	for i, id := range nodes {
		d.idx[id] = i
	}
	// idRank lets dense loops compare nodes in ID order without string
	// comparisons: idRank[i] < idRank[j] iff nodes[i] < nodes[j].
	byID := make([]int, len(nodes))
	for i := range byID {
		byID[i] = i
	}
	sort.Slice(byID, func(a, b int) bool { return nodes[byID[a]] < nodes[byID[b]] })
	d.idRank = make([]int, len(nodes))
	for rank, i := range byID {
		d.idRank[i] = rank
	}
	return d
}

// close computes the transitive closure in place (word-parallel
// Floyd–Warshall: row i absorbs row k whenever i reaches k), builds the
// transposed relation for ancestor queries, and fixes the topological
// order and the levels over every node. It is the final construction
// step; the DAG is immutable afterwards.
func (d *DAG) close() {
	n := len(d.nodes)
	for k := 0; k < n; k++ {
		rk := d.prec[k]
		for i := 0; i < n; i++ {
			if d.prec[i].Has(k) {
				d.prec[i].OrWith(rk)
			}
		}
	}
	d.pred = bitvec.Transpose(d.prec, n)
	// In a closed DAG a node's ancestors include its ancestors'
	// ancestors and not itself, so every ancestor has fewer.
	anc := make([]int, n)
	d.topo = make([]int, n)
	for i := range d.topo {
		d.topo[i] = i
		anc[i] = d.pred[i].Count()
	}
	slices.SortFunc(d.topo, func(a, b int) int { return cmp.Or(anc[a]-anc[b], d.idRank[a]-d.idRank[b]) })
	d.levels = d.levelsDense(bitvec.Ones(n))
}

// Nodes returns all node IDs in stable order.
func (d *DAG) Nodes() []predicate.ID {
	return append([]predicate.ID(nil), d.nodes...)
}

// Len returns the number of nodes.
func (d *DAG) Len() int { return len(d.nodes) }

// IndexOf returns the node's dense index.
func (d *DAG) IndexOf(id predicate.ID) (int, bool) {
	i, ok := d.idx[id]
	return i, ok
}

// IDAt returns the node ID at a dense index.
func (d *DAG) IDAt(i int) predicate.ID { return d.nodes[i] }

// IDRank returns the node's rank in ID sort order: sorting dense
// indices by IDRank reproduces sorting IDs lexicographically.
func (d *DAG) IDRank(i int) int { return d.idRank[i] }

// Precedes reports a ⇝ b: a consistently precedes (potentially causes) b.
func (d *DAG) Precedes(a, b predicate.ID) bool {
	i, ok1 := d.idx[a]
	j, ok2 := d.idx[b]
	return ok1 && ok2 && d.prec[i].Has(j)
}

// PrecedesIndex is Precedes over dense indices.
func (d *DAG) PrecedesIndex(i, j int) bool { return d.prec[i].Has(j) }

// ReachesAny reports whether node i precedes any member of s — one
// word-parallel row intersection.
func (d *DAG) ReachesAny(i int, s *NodeSet) bool {
	return d.prec[i].Intersects(s.bits)
}

// OrDescendantsInto unions node i's descendant row into s — the
// incremental-reachability primitive: a walk that ORs each walked
// node's row maintains "reached from any walked node" as one set,
// replacing a per-node ancestor intersection per round with a single
// word-parallel union per walked node.
func (d *DAG) OrDescendantsInto(i int, s *NodeSet) {
	s.bits.OrWith(d.prec[i])
}

// Ancestors returns every node that precedes id.
func (d *DAG) Ancestors(id predicate.ID) []predicate.ID {
	j, ok := d.idx[id]
	if !ok {
		return nil
	}
	var out []predicate.ID
	d.pred[j].ForEach(func(i int) { out = append(out, d.nodes[i]) })
	return out
}

// levelsAmong is the one levels DP. It writes into lvls the level
// within alive — the length of the longest precedence chain of alive
// nodes ending at the node — of every member of need, and reads and
// writes no other entry. need must hold every alive ancestor of each of
// its members. Then it holds everything a member's level depends on: the
// relation is closed, so a chain of alive nodes ending at a member runs
// through the member's alive ancestors alone, and the DAG's topological
// order, which orders every subset too, reaches each of them before the
// member.
func (d *DAG) levelsAmong(need, alive bitset, lvls []int) {
	for _, i := range d.topo {
		if !need.Has(i) {
			continue
		}
		lvl := 0
		d.pred[i].ForEachAnd(alive, func(a int) { lvl = max(lvl, lvls[a]+1) })
		lvls[i] = lvl
	}
}

// levelsDense computes topological levels restricted to the alive mask
// into a fresh slice indexed by dense node index; only alive entries are
// meaningful. Nodes at the same level are mutually unordered — the
// junctions of Algorithm 2.
func (d *DAG) levelsDense(alive bitset) []int {
	lvls := make([]int, len(d.nodes))
	d.levelsAmong(alive, alive, lvls)
	return lvls
}

// LevelsAmong writes into lvls, which must have Len() entries, the level
// within alive (nil = all nodes) of every alive member and of every
// alive ancestor of a member, and leaves every other entry as it was.
// It is the query a GIWP round asks about its pool: the work is the
// pool's alive ancestry, however large the alive set. need is scratch
// the call overwrites. Given a non-nil alive set, the call allocates
// nothing, and it retains nothing.
func (d *DAG) LevelsAmong(members []int, alive, need *NodeSet, lvls []int) {
	mask := d.maskFor(alive)
	nb := need.bits
	nb.ClearFrom(0)
	for _, m := range members {
		nb.SetInCap(m)
		nb.OrWith(d.pred[m])
	}
	nb.AndWith(mask)
	d.levelsAmong(nb, mask, lvls)
}

// LevelsIndex is levelsDense over a node set (nil = all nodes): the
// per-index topological levels discovery's dense loops consume. Only
// entries of members are meaningful. The levels over all nodes are a
// constant of the DAG, returned as such: the caller must not modify
// them.
func (d *DAG) LevelsIndex(alive *NodeSet) []int {
	if alive == nil {
		return d.levels
	}
	return d.levelsDense(alive.bits)
}

// TopoOrder returns the nodes sorted by level; ties are shuffled with
// rng (GIWP resolves ties randomly) or sorted by ID when rng is nil.
func (d *DAG) TopoOrder(rng *rand.Rand) []predicate.ID {
	return d.TopoOrderWithin(nil, rng)
}

// TopoOrderWithin is TopoOrder restricted to the alive set.
func (d *DAG) TopoOrderWithin(alive *NodeSet, rng *rand.Rand) []predicate.ID {
	mask := d.maskFor(alive)
	lvls := d.LevelsIndex(alive)
	idxs := make([]int, 0, mask.Count())
	mask.ForEach(func(i int) { idxs = append(idxs, i) })
	// Tie-free (level, then the idRank bijection): unstable sort safe.
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
		// Shuffle within equal-level groups.
		start := 0
		for start < len(out) {
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

// FrontierIndex returns the dense indices of alive\exclude members at
// the minimum topological level computed within alive — the junction
// members Algorithm 2 visits next, in ID order. The result is empty
// when exclude covers alive.
//
// Only that minimum is needed. A member attaining it has no alive
// ancestor outside exclude (that ancestor's level would be lower), so
// the candidates are the members without one, and the levels needed
// are theirs and those of their alive ancestors, which are all
// excluded, as are theirs (the relation is closed).
func (d *DAG) FrontierIndex(alive, exclude *NodeSet) []int {
	aliveMask := d.maskFor(alive)
	var excl bitset
	if exclude != nil {
		excl = exclude.bits
	}
	var out []int
	need := bitvec.New(len(d.nodes)) // the candidates and their alive ancestors
	aliveMask.ForEach(func(i int) {
		if excl.Has(i) {
			return
		}
		row := d.pred[i]
		for w := range row {
			if row[w]&aliveMask[w]&^wordAt(excl, w) != 0 {
				return // an alive ancestor outside exclude
			}
		}
		out = append(out, i)
		need.SetInCap(i)
		for w := range row {
			need[w] |= row[w] & aliveMask[w]
		}
	})
	if len(out) == 0 {
		return out
	}
	lvls := make([]int, len(d.nodes))
	d.levelsAmong(need, aliveMask, lvls)
	minLevel, k := -1, 0
	for _, i := range out {
		switch l := lvls[i]; {
		case minLevel == -1 || l < minLevel:
			minLevel, k = l, 0
			out[k], k = i, k+1
		case l == minLevel:
			out[k], k = i, k+1
		}
	}
	out = out[:k]
	sort.Slice(out, func(a, b int) bool { return d.idRank[out[a]] < d.idRank[out[b]] })
	return out
}

// wordAt is v's w-th word, 0 past its end.
func wordAt(v bitset, w int) uint64 {
	if w < len(v) {
		return v[w]
	}
	return 0
}

// Roots returns nodes with no ancestors.
func (d *DAG) Roots() []predicate.ID {
	var out []predicate.ID
	for i, id := range d.nodes {
		if d.pred[i].Count() == 0 {
			out = append(out, id)
		}
	}
	return out
}

// BranchesIndex computes the independent branches at a junction
// (Algorithm 2 lines 10–12) over dense indices: for each junction
// member P, the branch is P followed by every alive descendant of P
// that is not a descendant of any other member, in dense-index order.
// The failure predicate never belongs to a branch. The result is
// aligned with the junction slice.
func (d *DAG) BranchesIndex(junction []int, alive *NodeSet) [][]int {
	aliveMask := d.maskFor(alive).Clone()
	if f, ok := d.idx[predicate.FailureID]; ok {
		aliveMask.Unset(f)
	}
	out := make([][]int, len(junction))
	for k, pi := range junction {
		branch := []int{pi}
		// Word-parallel exclusivity: P's branch is its alive descendants
		// minus every other member's descendant set.
		bits := d.prec[pi].Clone()
		for w := range bits {
			bits[w] &= aliveMask[w]
		}
		for _, oi := range junction {
			if oi == pi {
				continue
			}
			for w := range bits {
				bits[w] &^= d.prec[oi][w]
			}
		}
		bits.ForEach(func(q int) { branch = append(branch, q) })
		out[k] = branch
	}
	return out
}

// ReductionEdges returns the transitive reduction (the minimal edge set
// with the same closure) for display, sorted lexicographically.
func (d *DAG) ReductionEdges() [][2]predicate.ID {
	var out [][2]predicate.ID
	n := len(d.nodes)
	for i := 0; i < n; i++ {
		d.prec[i].ForEach(func(j int) {
			// i → j is direct iff no witness k with i ⇝ k ⇝ j: the
			// word-parallel intersection of i's descendants with j's
			// ancestors.
			if !d.prec[i].IntersectsExcept(d.pred[j], i, j) {
				out = append(out, [2]predicate.ID{d.nodes[i], d.nodes[j]})
			}
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// Dot renders the transitive reduction in Graphviz format.
func (d *DAG) Dot() string {
	var b strings.Builder
	b.WriteString("digraph acdag {\n  rankdir=TB;\n")
	for _, id := range d.nodes {
		fmt.Fprintf(&b, "  %q;\n", string(id))
	}
	for _, e := range d.ReductionEdges() {
		fmt.Fprintf(&b, "  %q -> %q;\n", string(e[0]), string(e[1]))
	}
	b.WriteString("}\n")
	return b.String()
}
