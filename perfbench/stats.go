package main

import (
	"math"
	"sort"
)

// median of xs (0 for none).
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

// p90 is the nearest-rank 90th percentile of xs. It is reported only
// where at least ten samples lie beyond it, so ok is false below 100
// samples.
func p90(xs []float64) (v float64, ok bool) {
	n := len(xs)
	rank := int(math.Ceil(0.9 * float64(n)))
	if n-rank < 10 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}
