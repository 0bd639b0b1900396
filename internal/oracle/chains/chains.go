// Package chains counts the CPD search space of an arbitrary AC-DAG
// from its exported queries: the reference the closed forms of package
// theory and the synthetic generator's structure are tested against.
// Only tests import it.
package chains

import (
	"math/big"

	"aid/internal/acdag"
	"aid/internal/predicate"
)

// Count returns the number of totally-ordered subsets (chains) of d's
// predicate nodes, including the empty set. The failure predicate is
// excluded — it terminates every solution and contributes no choice.
//
// Each non-empty chain is counted once at its maximum element:
// chainsEndingAt(v) = 1 + Σ_{u ≺ v} chainsEndingAt(u).
func Count(d *acdag.DAG) *big.Int {
	ending := make(map[predicate.ID]*big.Int, d.Len())
	total := big.NewInt(1) // the empty solution
	// Topological order: predecessors are counted first.
	for _, v := range d.TopoOrder(nil) {
		if v == predicate.FailureID {
			continue
		}
		cnt := big.NewInt(1)
		for _, u := range d.Ancestors(v) {
			if u != predicate.FailureID {
				cnt.Add(cnt, ending[u])
			}
		}
		ending[v] = cnt
		total.Add(total, cnt)
	}
	return total
}
