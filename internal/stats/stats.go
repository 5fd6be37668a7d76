// Package stats provides the small statistical toolkit used throughout the
// study: empirical CDFs, histograms, quantiles, and summary statistics.
//
// Every analysis in the paper is expressed either as an ECDF over a derived
// quantity (e.g. the time difference between two lifecycle events, Figure 5)
// or as a binned count over time (e.g. exploit events per 5-day window,
// Figure 6). The types here are deliberately plain: a slice of float64
// samples in, a queryable distribution out.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoSamples is returned by constructors that require at least one sample.
var ErrNoSamples = errors.New("stats: no samples")

// ECDF is an empirical cumulative distribution function over a fixed sample.
// The zero value is not usable; construct with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the given samples. The input slice is copied
// and may be reused by the caller. It returns ErrNoSamples for empty input.
func NewECDF(samples []float64) (*ECDF, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// MustECDF is NewECDF but panics on error. It is intended for test and
// example code where the sample set is known to be non-empty.
func MustECDF(samples []float64) *ECDF {
	e, err := NewECDF(samples)
	if err != nil {
		panic(err)
	}
	return e
}

// N returns the number of samples.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns P(X <= x), the fraction of samples less than or equal to x.
func (e *ECDF) At(x float64) float64 {
	// Index of the first sample strictly greater than x.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// Below returns P(X < x), the fraction of samples strictly less than x.
// The paper's desiderata are strict orderings (event R before event C), so
// "diff < 0" style queries use Below rather than At.
func (e *ECDF) Below(x float64) float64 {
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] >= x })
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-th quantile for q in [0, 1] using the nearest-rank
// definition. Quantile(0) is the minimum and Quantile(1) the maximum.
func (e *ECDF) Quantile(q float64) float64 {
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	rank := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return e.sorted[rank]
}

// Min returns the smallest sample.
func (e *ECDF) Min() float64 { return e.sorted[0] }

// Max returns the largest sample.
func (e *ECDF) Max() float64 { return e.sorted[len(e.sorted)-1] }

// Median returns the 0.5 quantile.
func (e *ECDF) Median() float64 { return e.Quantile(0.5) }

// Points returns the step points of the CDF as (x, P(X<=x)) pairs, one per
// distinct sample value. The result is suitable for plotting or CSV export.
func (e *ECDF) Points() []Point {
	pts := make([]Point, 0, len(e.sorted))
	n := float64(len(e.sorted))
	for i := 0; i < len(e.sorted); {
		j := i
		for j < len(e.sorted) && e.sorted[j] == e.sorted[i] {
			j++
		}
		pts = append(pts, Point{X: e.sorted[i], Y: float64(j) / n})
		i = j
	}
	return pts
}

// Point is a single (x, y) sample of a curve.
type Point struct {
	X float64
	Y float64
}

// Histogram is a fixed-width binned count over a half-open range
// [Lo, Lo+Width*len(Counts)). Samples outside the range are tallied in
// Under/Over rather than silently dropped: the paper's time-relative
// histograms (Figure 6) have long tails on both sides and the analysis must
// be able to report coverage.
type Histogram struct {
	Lo     float64
	Width  float64
	Counts []int
	Under  int
	Over   int
}

// NewHistogram creates a histogram with nbins bins of the given width
// starting at lo. Width must be positive and nbins at least 1.
func NewHistogram(lo, width float64, nbins int) (*Histogram, error) {
	if width <= 0 {
		return nil, fmt.Errorf("stats: histogram width must be positive, got %v", width)
	}
	if nbins < 1 {
		return nil, fmt.Errorf("stats: histogram needs at least 1 bin, got %d", nbins)
	}
	return &Histogram{Lo: lo, Width: width, Counts: make([]int, nbins)}, nil
}

// Add tallies one sample.
func (h *Histogram) Add(x float64) {
	switch i := h.binIndex(x); {
	case i < 0:
		h.Under++
	case i >= len(h.Counts):
		h.Over++
	default:
		h.Counts[i]++
	}
}

func (h *Histogram) binIndex(x float64) int {
	return int(math.Floor((x - h.Lo) / h.Width))
}

// Total returns the number of samples tallied, including out-of-range ones.
func (h *Histogram) Total() int {
	t := h.Under + h.Over
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// BinStart returns the inclusive lower edge of bin i.
func (h *Histogram) BinStart(i int) float64 { return h.Lo + float64(i)*h.Width }

// Fraction returns the fraction of samples for which pred holds. It returns
// 0 for an empty slice; callers that must distinguish "no data" should check
// the length themselves.
func Fraction(samples []float64, pred func(float64) bool) float64 {
	if len(samples) == 0 {
		return 0
	}
	n := 0
	for _, v := range samples {
		if pred(v) {
			n++
		}
	}
	return float64(n) / float64(len(samples))
}
