// Package theory implements the information-theoretic analysis of §6:
// lower and upper bounds on the number of group interventions for
// Causal Path Discovery (CPD) versus plain Group Testing (GT), and the
// search-space computations of Lemma 1 and the symmetric AC-DAG
// (Fig. 5(c) / Fig. 6 / Example 3).
package theory

import (
	"math"
	"math/big"
)

// LogChoose returns log₂ C(n, d) (0 for degenerate inputs).
func LogChoose(n, d int) float64 {
	if d < 0 || n < 0 || d > n {
		return 0
	}
	lg, _ := math.Lgamma(float64(n + 1))
	ld, _ := math.Lgamma(float64(d + 1))
	lnd, _ := math.Lgamma(float64(n - d + 1))
	return (lg - ld - lnd) / math.Ln2
}

// GTLowerBound is the information-theoretic lower bound for group
// testing: log₂ C(N, D) tests to identify D defectives among N items.
func GTLowerBound(n, d int) float64 { return LogChoose(n, d) }

// CPDLowerBound is Theorem 2: with at least S1 predicates discarded per
// group intervention, CPD needs at least N/(N + D·S1) · log₂C(N,D)
// interventions — strictly below the GT bound whenever D·S1 > 0.
func CPDLowerBound(n, d, s1 int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) / float64(n+d*s1) * LogChoose(n, d)
}

// TAGTUpperBound is the classic D·log₂N adaptive group-testing bound.
func TAGTUpperBound(n, d int) float64 {
	if n <= 1 || d <= 0 {
		return 0
	}
	return float64(d) * math.Log2(float64(n))
}

// AIDBranchUpperBound is the §6.3.1 bound with branch pruning:
// J·log₂T interventions to reduce the AC-DAG to a chain (J junctions,
// at most T branches each, T bounded by the thread count) plus
// D·log₂(NM) to vet the chain of at most NM predicates. It improves on
// TAGT's D·log₂(T·NM) whenever J < D.
func AIDBranchUpperBound(j, t, nm, d int) float64 {
	var out float64
	if j > 0 && t > 1 {
		out += float64(j) * math.Log2(float64(t))
	}
	if d > 0 && nm > 1 {
		out += float64(d) * math.Log2(float64(nm))
	}
	return out
}

// AIDPruningUpperBound is Theorem 3: with at least S2 predicates
// discarded per causal-predicate discovery, AID needs at most
// D·log₂N − D(D−1)·S2 / (2N) interventions. S2 = 1 degenerates to TAGT.
func AIDPruningUpperBound(n, d, s2 int) float64 {
	if n <= 1 || d <= 0 {
		return 0
	}
	return float64(d)*math.Log2(float64(n)) -
		float64(d*(d-1)*s2)/(2*float64(n))
}

// ChainSpace is the CPD search space of a simple chain of n predicates:
// 2ⁿ (every subset of a chain is totally ordered).
func ChainSpace(n int) *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(n))
}

// HorizontalExpand applies Lemma 1's horizontal rule: two subgraphs
// joined in parallel between junctions admit the solutions of either
// side but no mixtures; the empty solution is shared.
// W(GH) = 1 + (W(G1) − 1) + (W(G2) − 1).
func HorizontalExpand(a, b *big.Int) *big.Int {
	out := new(big.Int).Add(a, b)
	return out.Sub(out, big.NewInt(1))
}

// VerticalExpand applies Lemma 1's vertical rule: sequential
// composition multiplies the search spaces. W(GV) = W(G1)·W(G2).
func VerticalExpand(a, b *big.Int) *big.Int {
	return new(big.Int).Mul(a, b)
}

// GTSpace is the group-testing search space over n predicates: all 2ⁿ
// subsets (GT ignores structure).
func GTSpace(n int) *big.Int { return ChainSpace(n) }

// SymmetricCPDSpace is the CPD search space of the symmetric AC-DAG of
// Fig. 5(c): J junctions, B branches per junction, n predicates per
// branch. W = (B·(2ⁿ − 1) + 1)^J.
func SymmetricCPDSpace(j, b, n int) *big.Int {
	phase := new(big.Int).Sub(ChainSpace(n), big.NewInt(1))
	phase.Mul(phase, big.NewInt(int64(b)))
	phase.Add(phase, big.NewInt(1))
	return new(big.Int).Exp(phase, big.NewInt(int64(j)), nil)
}

// SymmetricGTSpace is GT's search space on the same DAG: 2^(J·B·n).
func SymmetricGTSpace(j, b, n int) *big.Int { return GTSpace(j * b * n) }

// Fig6Row is one row of the paper's Fig. 6 comparison table, computed
// numerically for concrete parameters.
type Fig6Row struct {
	Model           string  // "CPD" or "GT"
	SearchSpaceLog2 float64 // log₂ of the candidate-solution count
	LowerBound      float64 // interventions, information-theoretic
	UpperBound      float64 // interventions, algorithmic
}

// Figure6 evaluates both rows of Fig. 6 for a symmetric AC-DAG with J
// junctions, B branches, n predicates per branch, D causal predicates,
// and pruning rates S1 (per intervention) and S2 (per discovery).
func Figure6(j, b, n, d, s1, s2 int) [2]Fig6Row {
	total := j * b * n
	cpdSpace := SymmetricCPDSpace(j, b, n)
	gtSpace := SymmetricGTSpace(j, b, n)

	var cpdUpper float64
	if b > 1 && j > 0 {
		cpdUpper += float64(j) * math.Log2(float64(b))
	}
	if d > 0 && j*n > 1 {
		cpdUpper += float64(d) * math.Log2(float64(j*n))
		cpdUpper -= float64(d*(d-1)*s2) / (2 * float64(j*n))
	}
	var gtUpper float64
	if d > 0 && total > 1 {
		gtUpper = float64(d)*math.Log2(float64(total)) -
			float64(d*(d-1))/(2*float64(total))
	}
	return [2]Fig6Row{
		{
			Model:           "CPD",
			SearchSpaceLog2: log2Big(cpdSpace),
			LowerBound:      CPDLowerBound(total, d, s1),
			UpperBound:      cpdUpper,
		},
		{
			Model:           "GT",
			SearchSpaceLog2: log2Big(gtSpace),
			LowerBound:      GTLowerBound(total, d),
			UpperBound:      gtUpper,
		},
	}
}

func log2Big(x *big.Int) float64 {
	f := new(big.Float).SetInt(x)
	mant := new(big.Float)
	exp := f.MantExp(mant)
	m, _ := mant.Float64()
	return float64(exp) + math.Log2(m)
}
