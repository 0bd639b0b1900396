package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

func TestPercentileAndSampleCounts(t *testing.T) {
	for _, tc := range []struct {
		xs           []float64
		p            float64
		want         float64
		beyond, size int
	}{
		{seq(200), 50, 100, 100, 200},
		{seq(200), 95, 190, 10, 200}, // 200 ops leave ten samples beyond p95
		{seq(199), 95, 190, 9, 199},
		{seq(20), 95, 19, 1, 20},
		{seq(1), 95, 1, 0, 1},
		{[]float64{5, 1, 3}, 50, 3, 1, 3},
		{[]float64{5, 1, 3}, 95, 5, 0, 3},
		{[]float64{2, 2, 2, 9}, 50, 2, 2, 4},
	} {
		s := summarize(tc.xs)
		if got := s.percentile(tc.p); got != tc.want {
			t.Errorf("p%v of %v = %v, want %v", tc.p, tc.xs, got, tc.want)
		}
		if got := s.beyond(tc.p); got != tc.beyond {
			t.Errorf("samples beyond p%v of %d = %d, want %d", tc.p, len(tc.xs), got, tc.beyond)
		}
		if s.n() != tc.size {
			t.Errorf("n = %d, want %d", s.n(), tc.size)
		}
	}
	if s := summarize(nil); !math.IsNaN(s.percentile(50)) || s.beyond(95) != 0 {
		t.Error("an empty summary must have no percentile and nothing beyond it")
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{0.7, 0.5, 0.6}, 0.6},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{9}, 9},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}
