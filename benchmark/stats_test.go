package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileAndMedian(t *testing.T) {
	s := samples{5, 1, 4, 2, 3}
	if got := s.median(); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if got := (samples{4, 1, 3, 2}).median(); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	for _, tc := range []struct{ q, want float64 }{{0.2, 1}, {0.5, 3}, {0.9, 5}, {1, 5}} {
		if got := s.quantile(tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := (samples{}).quantile(0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if s[0] != 5 {
		t.Error("quantile reordered its receiver")
	}
}

// A percentile is quoted only with at least ten samples beyond it.
func TestSupports(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0.50, false},
		{20, 0.50, true},
		{99, 0.90, false},
		{100, 0.90, true},
		{199, 0.95, false},
		{200, 0.95, true},
		{999, 0.99, false},
		{1000, 0.99, true},
	} {
		if got := supports(tc.n, tc.q); got != tc.want {
			t.Errorf("supports(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4), the
// formula the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles(1,2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}
