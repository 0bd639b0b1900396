// Package grouptest implements Traditional Adaptive Group Testing
// (TAGT), the baseline AID is compared against (§6, §7).
//
// TAGT treats predicates as independent items: it knows nothing about
// the AC-DAG, intervenes on groups in random order, and can make
// decisions only about the intervened group — a negative test (failure
// persists) clears the whole group, a positive test (failure stops) is
// narrowed by binary splitting. Its upper bound is O(D log N) tests for
// D causal predicates among N (§2).
package grouptest

import (
	"fmt"
	"math"
	"sort"

	"aid/internal/predicate"
	"aid/internal/rngfast"
)

// Oracle answers one group test: stopped is true iff the failure
// disappears when all items in the group are intervened simultaneously
// (i.e. the group contains at least one causal predicate).
type Oracle func(group []predicate.ID) (stopped bool, err error)

// Result reports the identified causal items and the test count.
type Result struct {
	Causes []predicate.ID
	// Spurious lists the items cleared by negative tests.
	Spurious []predicate.ID
	// Tests is the number of group interventions performed.
	Tests int
}

// tester is the shared scheduling core of the strategies: every group
// test flows through it, so counting, defensive copying, and error
// wrapping behave identically across Adaptive and Halving.
type tester struct {
	oracle Oracle
	res    *Result
}

// test runs one group test and counts it (errors are not counted —
// no intervention completed).
func (t *tester) test(group []predicate.ID) (bool, error) {
	stopped, err := t.oracle(append([]predicate.ID(nil), group...))
	if err != nil {
		return false, fmt.Errorf("grouptest: %w", err)
	}
	t.res.Tests++
	return stopped, nil
}

// shuffledPool is the randomized item order every blind strategy starts
// from: stable-sorted, then permuted by the seed.
func shuffledPool(items []predicate.ID, seed int64) []predicate.ID {
	pool := append([]predicate.ID(nil), items...)
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	rng := rngfast.New(seed)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// Adaptive runs TAGT over the items in random order using the classic
// scheme the paper describes (§2): repeatedly test the whole remaining
// pool; while positive, binary-search one defective in ⌈log₂N⌉ tests,
// remove it, and repeat. A negative pool test clears everything left.
// Total tests ≤ D·(⌈log₂N⌉ + 1) + 1, the paper's D·logN bound.
func Adaptive(items []predicate.ID, oracle Oracle, seed int64) (*Result, error) {
	pool := shuffledPool(items, seed)
	res := &Result{}
	tst := &tester{oracle: oracle, res: res}
	for len(pool) > 0 {
		stopped, err := tst.test(pool)
		if err != nil {
			return nil, err
		}
		if !stopped {
			res.Spurious = append(res.Spurious, pool...)
			return res, nil
		}
		// The pool contains a defective: binary-search it. A negative
		// half implies the defective sits in the complement, so each
		// level costs exactly one test.
		search := pool
		for len(search) > 1 {
			half := search[:(len(search)+1)/2]
			stopped, err := tst.test(half)
			if err != nil {
				return nil, err
			}
			if stopped {
				search = half
			} else {
				search = search[len(half):]
			}
		}
		found := search[0]
		res.Causes = append(res.Causes, found)
		next := pool[:0:0]
		for _, p := range pool {
			if p != found {
				next = append(next, p)
			}
		}
		pool = next
	}
	return res, nil
}

// Halving runs adaptive group testing with the same divide-and-conquer
// scheme as AID's GIWP — repeatedly test the first ⌈n/2⌉ of the pool,
// recurse on positive groups, clear negative groups — but over a random
// permutation and with decisions only about tested groups. It is the
// like-for-like TAGT baseline of the paper's Fig. 8 ablation: AID-P-B
// differs from it only by ordering predicates topologically.
func Halving(items []predicate.ID, oracle Oracle, seed int64) (*Result, error) {
	pool := shuffledPool(items, seed)
	res := &Result{}
	if err := halve(pool, &tester{oracle: oracle, res: res}); err != nil {
		return nil, err
	}
	return res, nil
}

// halve is the divide-and-conquer scheme shared (structurally) with
// GIWP. Unlike AID's scheduler it deliberately keeps the blind
// baseline's wasted confirmation — a singleton remainder of a positive
// pool is retested, not deduced — because the paper's TAGT column
// measures the classic scheme, not AID's improvement over it.
func halve(pool []predicate.ID, tst *tester) error {
	for len(pool) > 0 {
		half := pool[:(len(pool)+1)/2]
		rest := pool[(len(pool)+1)/2:]
		stopped, err := tst.test(half)
		if err != nil {
			return err
		}
		if stopped {
			if len(half) == 1 {
				tst.res.Causes = append(tst.res.Causes, half[0])
			} else if err := halve(half, tst); err != nil {
				return err
			}
		} else {
			tst.res.Spurious = append(tst.res.Spurious, half...)
		}
		pool = rest
	}
	return nil
}

// UpperBound returns the classic adaptive group-testing bound
// D·⌈log₂N⌉ on the number of tests (the paper's TAGT worst case,
// Fig. 7 column 6).
func UpperBound(n, d int) int {
	if n <= 0 || d <= 0 {
		return 0
	}
	return d * int(math.Ceil(math.Log2(float64(n))))
}
