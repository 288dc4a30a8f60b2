package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile
// for it to mean anything.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs, averaging the two middle values of an
// even count; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank want-quantile of xs, lowered to the highest
// whole percentile that still has at least minBeyond samples above it, with
// the quantile actually used and the sample count. The median is the floor:
// with fewer than 2*minBeyond samples the median is returned.
func tail(xs []float64, want float64) (v, p float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, want, 0
	}
	p = want
	if most := math.Floor(100*float64(n-minBeyond)/float64(n)) / 100; most < p {
		p = most
	}
	if p <= 0.5 {
		return median(xs), 0.5, n
	}
	s := sorted(xs)
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], p, n
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) with its default
// exclusive method, so spreads printed here match the ones the benchmark's
// users compute. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// geomean returns the geometric mean of positive xs; 0 if any is not.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
