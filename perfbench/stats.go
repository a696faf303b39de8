package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// which is how the two sets of runs are compared. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// statistics.quantiles: j = i*(n+1)//4 clamped to [1, n-1], then
		// delta = i*(n+1) - 4*j and (s[j-1]*(4-delta) + s[j]*delta)/4.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail percentile from fewer samples is a few unlucky requests, not a
// property of the system.
const minBeyond = 10

// percentileSupported reports whether n samples hold at least minBeyond
// samples beyond the p-th percentile (p90 needs 100, p99 needs 1,000).
func percentileSupported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond-1e-9
}
