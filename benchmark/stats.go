package main

import (
	"math"
	"sort"
)

// nearestRank is ⌈p/100 · n⌉, the 1-based rank of the p-th percentile,
// with the product nudged down so that 99.9 % of 10000 is 9990 and not
// 9991 by rounding error.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// percentile is the nearest-rank percentile of an ascending-sorted
// sample: the smallest value with at least p% of the sample at or below
// it. p is in (0, 100]; an empty sample yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := nearestRank(p, n)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailCandidates are the percentiles a report may quote, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest candidate percentile that still has
// at least ten samples beyond it — the rule that keeps a quoted tail
// from being one or two outliers. Samples too small for any tail fall
// back to the median.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if beyond := n - nearestRank(p, n); beyond >= 10 {
			return p
		}
	}
	return 50
}

// sortedCopy returns xs ascending without disturbing the caller's order.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank median of an unsorted sample.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// mean is the arithmetic mean; an empty sample yields 0.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// minOf is the smallest value of a non-empty sample.
func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// worseBy is how far b sits on the wrong side of a as a share of a,
// given which direction is better; ≤ 0 means b is no worse.
func worseBy(a, b float64, better string) float64 {
	if a <= 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
