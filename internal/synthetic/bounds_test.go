package synthetic

import (
	"context"
	"math"
	"testing"

	"aid/internal/oracle/chains"
	"aid/internal/theory"
)

// TestAIDRespectsBranchPruningBound cross-validates §6.3.1 empirically:
// on generated fork-join worlds, AID's measured intervention count must
// stay within the J·log₂T + D·log₂NM envelope (with an additive
// allowance for the interventions that confirm causes one by one and
// for non-symmetric instances — the bound models the symmetric DAG).
func TestAIDRespectsBranchPruningBound(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		inst := mustGen(t, 12, seed)
		n, err := RunInstance(context.Background(), inst, AID, seed)
		if err != nil {
			t.Fatal(err)
		}
		j := float64(inst.Junctions)
		tr := math.Max(2, float64(inst.Branches))
		nm := math.Max(2, float64(4*inst.Junctions)) // ≤ 4 preds per branch per phase
		d := float64(inst.D)
		bound := theory.AIDBranchUpperBound(int(j), int(tr), int(nm), int(d))
		allowance := 2*d + j + 4
		if float64(n) > bound+allowance {
			t.Errorf("seed %d: AID used %d interventions, bound %.1f + allowance %.1f (J=%v T=%v NM=%v D=%v)",
				seed, n, bound, allowance, j, tr, nm, d)
		}
	}
}

// TestPruningRateMatchesTheorem3Direction checks the ablation's
// direction against Theorem 3: enabling predicate pruning (S2 > 1) must
// not increase the intervention count, instance by instance.
func TestPruningRateMatchesTheorem3Direction(t *testing.T) {
	worse := 0
	total := 0
	for seed := int64(0); seed < 30; seed++ {
		inst := mustGen(t, 10, seed)
		withPruning, err := RunInstance(context.Background(), inst, AID, seed)
		if err != nil {
			t.Fatal(err)
		}
		withoutPruning, err := RunInstance(context.Background(), inst, AIDP, seed)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if withPruning > withoutPruning {
			worse++
		}
	}
	// Pruning can occasionally lose a coin flip on tie-breaking, but
	// must win or tie on the overwhelming majority of instances.
	if worse > total/5 {
		t.Fatalf("predicate pruning increased interventions on %d/%d instances", worse, total)
	}
}

// TestSearchSpaceShrinksWithStructure ties the generator to Lemma 1:
// the world's AC-DAG admits far fewer CPD candidate solutions (chains)
// than GT's 2^N, and the true causal path is one of them.
func TestSearchSpaceShrinksWithStructure(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		inst := mustGen(t, 8, seed)
		dag, err := inst.World.DAG()
		if err != nil {
			t.Fatal(err)
		}
		if inst.N < 4 || inst.Branches < 2 {
			continue // chains: spaces coincide
		}
		cpd := chains.Count(dag)
		gt := theory.GTSpace(inst.N)
		if cpd.Cmp(gt) >= 0 {
			t.Errorf("seed %d: CPD space %s not below GT space %s", seed, cpd, gt)
		}
		// The planted path must be a chain of the DAG.
		for i := 0; i+1 < len(inst.World.Path); i++ {
			if !dag.Precedes(inst.World.Path[i], inst.World.Path[i+1]) {
				t.Fatalf("seed %d: planted path not a DAG chain", seed)
			}
		}
	}
}
