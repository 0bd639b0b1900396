// Package grouptest implements Traditional Adaptive Group Testing
// (TAGT), the baseline AID is compared against (§6, §7).
//
// TAGT treats predicates as independent items: it knows nothing about
// the AC-DAG, intervenes on groups in random order, and can make
// decisions only about the intervened group — a negative test (failure
// persists) clears the whole group, a positive test (failure stops) is
// narrowed by binary splitting. Its upper bound is O(D log N) tests for
// D causal predicates among N (§2); when D ≥ N/log N a linear scan is
// preferable, which Linear provides.
package grouptest

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"aid/internal/predicate"
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
// wrapping behave identically across Adaptive, Halving, NonAdaptive and
// Linear.
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
	rng := rand.New(rand.NewSource(seed))
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

// NonAdaptive identifies a single defective item with a predetermined
// bit-mask design — the non-adaptive variant §2 contrasts with AID's
// adaptive scheme. Test i contains every item whose index has bit i
// set; the pattern of positive outcomes spells the defective's index,
// confirmed by one verification test. All ⌈log₂N⌉ tests are fixed in
// advance, so they could run in parallel — but the design only decodes
// a single defective: with none it reports an empty result, and with
// several the decode fails verification and an error is returned
// (adaptive testing is required then).
func NonAdaptive(items []predicate.ID, oracle Oracle) (*Result, error) {
	res := &Result{}
	n := len(items)
	if n == 0 {
		return res, nil
	}
	tst := &tester{oracle: oracle, res: res}
	idx := 0
	for b := 0; 1<<b < n; b++ {
		var group []predicate.ID
		for i, it := range items {
			if i&(1<<b) != 0 {
				group = append(group, it)
			}
		}
		positive, err := tst.test(group)
		if err != nil {
			return nil, err
		}
		if positive {
			idx |= 1 << b
		}
	}
	if idx >= n {
		return nil, fmt.Errorf("grouptest: non-adaptive decode out of range (multiple defectives?)")
	}
	// Verification: the decoded candidate must itself test positive;
	// for a defect-free pool the all-negative pattern decodes to index
	// 0, which verification then clears.
	positive, err := tst.test([]predicate.ID{items[idx]})
	if err != nil {
		return nil, err
	}
	if !positive {
		if idx == 0 {
			res.Spurious = append(res.Spurious, items...)
			return res, nil
		}
		return nil, fmt.Errorf("grouptest: non-adaptive decode failed verification (multiple defectives?)")
	}
	res.Causes = append(res.Causes, items[idx])
	for i, it := range items {
		if i != idx {
			res.Spurious = append(res.Spurious, it)
		}
	}
	return res, nil
}

// Linear tests the items one at a time — the preferable strategy when
// D ≥ N/log N (§2).
func Linear(items []predicate.ID, oracle Oracle) (*Result, error) {
	res := &Result{}
	tst := &tester{oracle: oracle, res: res}
	for _, it := range items {
		stopped, err := tst.test([]predicate.ID{it})
		if err != nil {
			return nil, err
		}
		if stopped {
			res.Causes = append(res.Causes, it)
		} else {
			res.Spurious = append(res.Spurious, it)
		}
	}
	return res, nil
}

// Auto picks Linear when the expected defective count d makes group
// testing unattractive (d ≥ n/log₂ n) and Adaptive otherwise.
func Auto(items []predicate.ID, expectedDefectives int, oracle Oracle, seed int64) (*Result, error) {
	n := len(items)
	if n > 1 && float64(expectedDefectives) >= float64(n)/math.Log2(float64(n)) {
		return Linear(items, oracle)
	}
	return Adaptive(items, oracle, seed)
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
