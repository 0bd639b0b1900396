package theory

import (
	"fmt"
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"aid/internal/acdag"
	"aid/internal/oracle/chains"
	"aid/internal/predicate"
)

func TestLogChoose(t *testing.T) {
	cases := []struct {
		n, d int
		want float64
	}{
		{4, 2, math.Log2(6)},
		{10, 0, 0},
		{10, 10, 0},
		{6, 3, math.Log2(20)},
		{-1, 0, 0},
		{3, 5, 0},
	}
	for _, c := range cases {
		if got := LogChoose(c.n, c.d); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("LogChoose(%d,%d) = %v, want %v", c.n, c.d, got, c.want)
		}
	}
}

func TestTheorem2LowerBoundReduced(t *testing.T) {
	// CPD's lower bound is below GT's whenever D·S1 > 0 and decreases
	// as S1 grows.
	n, d := 100, 5
	gt := GTLowerBound(n, d)
	prev := gt
	for s1 := 1; s1 <= 10; s1++ {
		cpd := CPDLowerBound(n, d, s1)
		if cpd >= prev {
			t.Fatalf("CPD lower bound not decreasing at S1=%d: %v >= %v", s1, cpd, prev)
		}
		prev = cpd
	}
	if CPDLowerBound(n, d, 0) != gt {
		t.Fatal("S1=0 should reduce to the GT bound")
	}
}

func TestTheorem3UpperBoundReduced(t *testing.T) {
	n, d := 200, 8
	tagt := TAGTUpperBound(n, d)
	prev := tagt + 1
	for s2 := 1; s2 <= 20; s2++ {
		aid := AIDPruningUpperBound(n, d, s2)
		if aid > tagt {
			t.Fatalf("AID upper bound above TAGT at S2=%d", s2)
		}
		if aid >= prev {
			t.Fatalf("AID upper bound not decreasing in S2 at %d", s2)
		}
		prev = aid
	}
}

func TestBranchUpperBoundBeatsTAGTWhenJLessThanD(t *testing.T) {
	// §6.3.1: J·logT + D·logNM < D·logT + D·logNM = D·log(T·NM) iff J<D.
	j, tr, nm, d := 2, 8, 50, 5
	aid := AIDBranchUpperBound(j, tr, nm, d)
	tagt := TAGTUpperBound(tr*nm, d) // D·log(T·NM)
	if aid >= tagt {
		t.Fatalf("branch bound %v not below TAGT %v despite J<D", aid, tagt)
	}
	// J >= D flips the comparison's guarantee (bound may exceed).
	j2 := 10
	aid2 := AIDBranchUpperBound(j2, tr, nm, d)
	if aid2 <= aid {
		t.Fatal("more junctions should not cost less")
	}
}

func TestExample3SearchSpace(t *testing.T) {
	// Fig. 5(a): one junction, two branches of 3 predicates.
	cpd := SymmetricCPDSpace(1, 2, 3)
	if cpd.Cmp(big.NewInt(15)) != 0 {
		t.Fatalf("CPD search space = %s, want 15 (Example 3)", cpd)
	}
	gt := SymmetricGTSpace(1, 2, 3)
	if gt.Cmp(big.NewInt(64)) != 0 {
		t.Fatalf("GT search space = %s, want 64 (Example 3)", gt)
	}
}

func TestLemma1Expansion(t *testing.T) {
	// Horizontal expansion of two 3-chains: 1 + (8-1) + (8-1) = 15.
	h := HorizontalExpand(ChainSpace(3), ChainSpace(3))
	if h.Cmp(big.NewInt(15)) != 0 {
		t.Fatalf("horizontal expansion = %s, want 15", h)
	}
	// Vertical expansion multiplies: 8 * 8 = 64.
	v := VerticalExpand(ChainSpace(3), ChainSpace(3))
	if v.Cmp(big.NewInt(64)) != 0 {
		t.Fatalf("vertical expansion = %s, want 64", v)
	}
}

// Property: the symmetric closed form equals composing Lemma 1's rules.
func TestSymmetricMatchesExpansion(t *testing.T) {
	prop := func(jRaw, bRaw, nRaw uint8) bool {
		j := 1 + int(jRaw)%4
		b := 1 + int(bRaw)%4
		n := 1 + int(nRaw)%5
		// One phase: horizontal expansion of B chains of n.
		phase := ChainSpace(n)
		for i := 1; i < b; i++ {
			phase = HorizontalExpand(phase, ChainSpace(n))
		}
		// J phases: vertical expansion.
		total := big.NewInt(1)
		for i := 0; i < j; i++ {
			total = VerticalExpand(total, phase)
		}
		return total.Cmp(SymmetricCPDSpace(j, b, n)) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// symmetricDAG builds the Fig. 5(c) AC-DAG explicitly.
func symmetricDAG(t *testing.T, j, b, n int) *acdag.DAG {
	t.Helper()
	var nodes []predicate.ID
	var edges [][2]predicate.ID
	name := func(phase, branch, pos int) predicate.ID {
		return predicate.ID(fmt.Sprintf("J%dB%dP%d", phase, branch, pos))
	}
	for phase := 0; phase < j; phase++ {
		for branch := 0; branch < b; branch++ {
			for pos := 0; pos < n; pos++ {
				id := name(phase, branch, pos)
				nodes = append(nodes, id)
				if pos > 0 {
					edges = append(edges, [2]predicate.ID{name(phase, branch, pos-1), id})
				}
			}
			if phase > 0 {
				// Every leaf of the previous phase precedes every root
				// of this phase.
				for prevBranch := 0; prevBranch < b; prevBranch++ {
					edges = append(edges, [2]predicate.ID{
						name(phase-1, prevBranch, n-1), name(phase, branch, 0),
					})
				}
			}
		}
	}
	nodes = append(nodes, predicate.FailureID)
	for branch := 0; branch < b; branch++ {
		edges = append(edges, [2]predicate.ID{name(j-1, branch, n-1), predicate.FailureID})
	}
	d, err := acdag.FromEdges(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// Property: counting chains on the explicit symmetric DAG matches the
// closed form — the structural result behind Fig. 6's first column.
func TestCountChainsMatchesClosedForm(t *testing.T) {
	for _, tc := range []struct{ j, b, n int }{
		{1, 2, 3}, {2, 2, 2}, {1, 3, 2}, {3, 1, 2}, {2, 3, 1},
	} {
		d := symmetricDAG(t, tc.j, tc.b, tc.n)
		got := chains.Count(d)
		want := SymmetricCPDSpace(tc.j, tc.b, tc.n)
		if got.Cmp(want) != 0 {
			t.Errorf("J=%d B=%d n=%d: CountChains = %s, closed form = %s",
				tc.j, tc.b, tc.n, got, want)
		}
	}
}

func TestCountChainsSimpleChain(t *testing.T) {
	d, err := acdag.FromEdges(
		[]predicate.ID{"a", "b", "c", predicate.FailureID},
		[][2]predicate.ID{{"a", "b"}, {"b", "c"}, {"c", predicate.FailureID}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := chains.Count(d); got.Cmp(big.NewInt(8)) != 0 {
		t.Fatalf("chain of 3: CountChains = %s, want 8", got)
	}
}

func TestFigure6(t *testing.T) {
	rows := Figure6(3, 4, 5, 4, 2, 2)
	cpd, gt := rows[0], rows[1]
	if cpd.Model != "CPD" || gt.Model != "GT" {
		t.Fatal("row order wrong")
	}
	if cpd.SearchSpaceLog2 >= gt.SearchSpaceLog2 {
		t.Fatalf("CPD space %v not below GT space %v", cpd.SearchSpaceLog2, gt.SearchSpaceLog2)
	}
	if cpd.LowerBound >= gt.LowerBound {
		t.Fatalf("CPD lower %v not below GT lower %v", cpd.LowerBound, gt.LowerBound)
	}
	if cpd.UpperBound >= gt.UpperBound {
		// J=3 < D=4, so the branch-pruned upper bound must win.
		t.Fatalf("CPD upper %v not below GT upper %v", cpd.UpperBound, gt.UpperBound)
	}
	if gt.LowerBound > gt.UpperBound {
		t.Fatalf("GT lower bound %v above its upper bound %v", gt.LowerBound, gt.UpperBound)
	}
}

func TestDegenerateBounds(t *testing.T) {
	if TAGTUpperBound(0, 5) != 0 || TAGTUpperBound(10, 0) != 0 {
		t.Fatal("degenerate TAGT bound nonzero")
	}
	if AIDPruningUpperBound(1, 0, 3) != 0 {
		t.Fatal("degenerate AID bound nonzero")
	}
	if CPDLowerBound(0, 2, 1) != 0 {
		t.Fatal("degenerate CPD lower bound nonzero")
	}
	if AIDBranchUpperBound(0, 0, 0, 0) != 0 {
		t.Fatal("degenerate branch bound nonzero")
	}
}
