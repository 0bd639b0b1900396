package main

import (
	"math"
	"sort"
)

// summary is a latency sample set, kept sorted.
type summary struct {
	sorted []float64
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{sorted: s}
}

// n is the sample count.
func (s summary) n() int { return len(s.sorted) }

// rank is the 1-based nearest-rank position of the p-th percentile
// (0 < p <= 100) among n samples: the smallest sample with at least p%
// of the samples at or below it.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile is the nearest-rank p-th percentile (NaN without samples).
func (s summary) percentile(p float64) float64 {
	if s.n() == 0 {
		return math.NaN()
	}
	return s.sorted[rank(s.n(), p)-1]
}

// beyond counts the samples strictly above the p-th percentile's rank,
// the number a reader needs to trust the percentile (at least ten).
func (s summary) beyond(p float64) int {
	if s.n() == 0 {
		return 0
	}
	return s.n() - rank(s.n(), p)
}

// median of a small set of repeated measurements (set-up times): the
// middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
