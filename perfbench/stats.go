package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile of xs (0 if empty). It
// sorts xs in place.
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	return float64(xs[max(i, 0)])
}

// median is the middle value of xs, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perKop scales a count to a rate per thousand ops.
func perKop(n, ops float64) float64 {
	if ops == 0 {
		return 0
	}
	return n / ops * 1e3
}

// ratio is n/d, or 0 when d is 0.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}
