package main

import (
	"math"
	"sort"
)

// samples is a set of observations of one quantity (a latency, a pass time).
// Percentiles are exact: the benchmark keeps every observation, so there is no
// bucketing error to reason about.
type samples []float64

// sorted returns the observations in ascending order without disturbing s.
func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile (0 < q <= 1): the smallest
// observation with at least q of the samples at or below it. It is 0 for an
// empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	xs := s.sorted()
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median is the middle observation, the mean of the two middle ones for an
// even count.
func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	xs := s.sorted()
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

func (s samples) max() float64 {
	m := 0.0
	for _, x := range s {
		m = math.Max(m, x)
	}
	return m
}

// minBeyond is how many observations must lie beyond a percentile before the
// benchmark reports it: with fewer, the figure is one or two outliers, not a
// property of the system.
const minBeyond = 10

// supports reports whether n observations support quoting percentile q: at
// least minBeyond of them must lie beyond it.
func supports(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= minBeyond
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), because
// that is the formula the acceptance check applies to ten runs of this
// benchmark. It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	xs := samples(values).sorted()
	n := len(xs)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return xs[j-1] + frac*(xs[j]-xs[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range of values as a share of their median —
// the steadiness figure each end-to-end metric must keep inside its bound.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	med := samples(values).median()
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(med)
}
