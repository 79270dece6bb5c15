package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples a reported percentile must have
// above it: a tail percentile read off fewer samples is one outlier.
const minBeyond = 10

// candidatePercentiles are the percentiles tailPercentile chooses from.
var candidatePercentiles = []float64{50, 90, 99, 99.9}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank is the 1-based nearest-rank position of percentile p among n
// samples.
func rank(p float64, n int) int {
	// The epsilon absorbs float error in p/100·n (99.9% of 10000 must be
	// rank 9990, not 9991).
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs, or 0 for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rank(p, len(s))-1]
}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples above it; ok is false when not even the
// median does.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range candidatePercentiles {
		if n > 0 && n-rank(c, n) >= minBeyond {
			p, ok = c, true
		}
	}
	return p, ok
}
