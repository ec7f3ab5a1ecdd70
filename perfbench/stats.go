package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile for the percentile to be supported by the run.
const minTail = 10

// samples is a bag of measurements in one unit.
type samples []float64

// sorted returns an ascending copy.
func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Float64s(c)
	return c
}

// nearestRank returns the nearest-rank q-quantile of ascending xs: the
// smallest value with at least ⌈q·n⌉ samples at or below it. It returns 0
// for an empty bag.
func nearestRank(xs samples, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return xs[rank-1]
}

// pct is nearestRank on an unsorted bag.
func (s samples) pct(q float64) float64 { return nearestRank(s.sorted(), q) }

// beyond is the number of samples strictly after the nearest-rank
// q-quantile's position in a bag of n.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return n - rank
}

// supported reports whether a bag of n samples leaves at least minTail
// samples beyond its q-quantile.
func supported(n int, q float64) bool { return beyond(n, q) >= minTail }

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// ratio divides, returning 0 for an empty denominator: a layer that did no
// work reports zero rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median of a few repeated measurements (set-up repetitions).
func median(xs []float64) float64 { return samples(xs).pct(0.5) }
