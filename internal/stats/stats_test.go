package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewECDFEmpty(t *testing.T) {
	if _, err := NewECDF(nil); err != ErrNoSamples {
		t.Fatalf("NewECDF(nil) err = %v, want ErrNoSamples", err)
	}
}

func TestECDFAt(t *testing.T) {
	e := MustECDF([]float64{1, 2, 2, 3})
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFBelow(t *testing.T) {
	e := MustECDF([]float64{1, 2, 2, 3})
	cases := []struct {
		x    float64
		want float64
	}{
		{1, 0}, {2, 0.25}, {2.5, 0.75}, {3, 0.75}, {4, 1},
	}
	for _, c := range cases {
		if got := e.Below(c.x); got != c.want {
			t.Errorf("Below(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFQuantile(t *testing.T) {
	e := MustECDF([]float64{10, 20, 30, 40})
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 10}, {0.25, 10}, {0.5, 20}, {0.75, 30}, {1, 40}, {-1, 10}, {2, 40},
	}
	for _, c := range cases {
		if got := e.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestECDFInputNotMutated(t *testing.T) {
	in := []float64{3, 1, 2}
	MustECDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input slice mutated: %v", in)
	}
}

func TestECDFPoints(t *testing.T) {
	e := MustECDF([]float64{1, 1, 2, 4})
	pts := e.Points()
	want := []Point{{1, 0.5}, {2, 0.75}, {4, 1}}
	if len(pts) != len(want) {
		t.Fatalf("Points() = %v, want %v", pts, want)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("Points()[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

// Property: the ECDF is monotone non-decreasing and bounded in [0, 1].
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		samples := cleanSamples(raw)
		if len(samples) == 0 {
			return true
		}
		e := MustECDF(samples)
		if a > b {
			a, b = b, a
		}
		pa, pb := e.At(a), e.At(b)
		return pa >= 0 && pb <= 1 && pa <= pb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: At(max) == 1 and Below(min) == 0 for any non-empty sample.
func TestECDFBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		samples := cleanSamples(raw)
		if len(samples) == 0 {
			return true
		}
		e := MustECDF(samples)
		return e.At(e.Max()) == 1 && e.Below(e.Min()) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Quantile is the inverse of At in the nearest-rank sense:
// At(Quantile(q)) >= q for q in (0,1].
func TestQuantileInverseProperty(t *testing.T) {
	f := func(raw []float64, qraw float64) bool {
		samples := cleanSamples(raw)
		if len(samples) == 0 {
			return true
		}
		q := math.Mod(math.Abs(qraw), 1)
		if q == 0 {
			q = 0.5
		}
		e := MustECDF(samples)
		return e.At(e.Quantile(q)) >= q-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// cleanSamples removes NaN and infinities, which are not meaningful inputs
// for the study's time-difference distributions.
func cleanSamples(raw []float64) []float64 {
	out := raw[:0:0]
	for _, v := range raw {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out = append(out, v)
		}
	}
	return out
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 0, 5); err == nil {
		t.Error("NewHistogram with zero width should fail")
	}
	if _, err := NewHistogram(0, -1, 5); err == nil {
		t.Error("NewHistogram with negative width should fail")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("NewHistogram with zero bins should fail")
	}
}

func TestHistogramAdd(t *testing.T) {
	h, err := NewHistogram(0, 5, 4) // bins [0,5) [5,10) [10,15) [15,20)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 4.99, 5, 12, 19.99, 20, 100} {
		h.Add(x)
	}
	if h.Under != 1 {
		t.Errorf("Under = %d, want 1", h.Under)
	}
	if h.Over != 2 {
		t.Errorf("Over = %d, want 2", h.Over)
	}
	wantCounts := []int{2, 1, 1, 1}
	for i, w := range wantCounts {
		if h.Counts[i] != w {
			t.Errorf("Counts[%d] = %d, want %d", i, h.Counts[i], w)
		}
	}
	if got := h.Total(); got != 8 {
		t.Errorf("Total() = %d, want 8", got)
	}
}

func TestHistogramBinStart(t *testing.T) {
	h, _ := NewHistogram(-10, 5, 4)
	if got := h.BinStart(0); got != -10 {
		t.Errorf("BinStart(0) = %v, want -10", got)
	}
	if got := h.BinStart(3); got != 5 {
		t.Errorf("BinStart(3) = %v, want 5", got)
	}
}

// Property: Total equals the number of Add calls regardless of sample values.
func TestHistogramTotalProperty(t *testing.T) {
	f := func(raw []float64) bool {
		samples := cleanSamples(raw)
		h, _ := NewHistogram(-100, 7, 30)
		for _, v := range samples {
			h.Add(v)
		}
		return h.Total() == len(samples)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFraction(t *testing.T) {
	got := Fraction([]float64{-2, -1, 0, 1, 2}, func(v float64) bool { return v < 0 })
	if got != 0.4 {
		t.Errorf("Fraction = %v, want 0.4", got)
	}
	if Fraction(nil, func(float64) bool { return true }) != 0 {
		t.Error("Fraction of empty slice should be 0")
	}
}

// The ECDF should agree with a brute-force count on random data.
func TestECDFAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = math.Floor(rng.Float64()*20) - 10 // many ties
	}
	e := MustECDF(samples)
	for _, x := range []float64{-11, -10, -5.5, 0, 3, 9, 10} {
		le, lt := 0, 0
		for _, v := range samples {
			if v <= x {
				le++
			}
			if v < x {
				lt++
			}
		}
		if got, want := e.At(x), float64(le)/500; got != want {
			t.Errorf("At(%v) = %v, want %v", x, got, want)
		}
		if got, want := e.Below(x), float64(lt)/500; got != want {
			t.Errorf("Below(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestPointsReconstructECDF(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = math.Floor(rng.Float64() * 10)
	}
	e := MustECDF(samples)
	pts := e.Points()
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].X < pts[j].X }) {
		t.Fatal("Points not sorted by X")
	}
	for _, p := range pts {
		if got := e.At(p.X); got != p.Y {
			t.Errorf("At(%v) = %v, want point Y %v", p.X, got, p.Y)
		}
	}
	if last := pts[len(pts)-1]; last.Y != 1 {
		t.Errorf("final point Y = %v, want 1", last.Y)
	}
}

func TestSpearmanRhoPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{10, 20, 30, 40, 50}
	rho, err := SpearmanRho(xs, ys)
	if err != nil || math.Abs(rho-1) > 1e-12 {
		t.Errorf("rho = %v/%v, want 1", rho, err)
	}
	// Perfect inverse.
	inv := []float64{50, 40, 30, 20, 10}
	rho, _ = SpearmanRho(xs, inv)
	if math.Abs(rho+1) > 1e-12 {
		t.Errorf("inverse rho = %v, want -1", rho)
	}
	// Monotone nonlinear still rank-perfect.
	exp := []float64{1, 4, 9, 16, 25}
	rho, _ = SpearmanRho(xs, exp)
	if math.Abs(rho-1) > 1e-12 {
		t.Errorf("monotone rho = %v, want 1", rho)
	}
}

func TestSpearmanRhoTies(t *testing.T) {
	xs := []float64{1, 1, 2, 3}
	ys := []float64{5, 5, 6, 7}
	rho, err := SpearmanRho(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1) > 1e-12 {
		t.Errorf("tied rho = %v, want 1 (identical rank structure)", rho)
	}
}

func TestSpearmanRhoErrorsAndDegenerate(t *testing.T) {
	if _, err := SpearmanRho([]float64{1, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := SpearmanRho([]float64{1, 2}, []float64{3, 4}); err == nil {
		t.Error("too-short input accepted")
	}
	rho, err := SpearmanRho([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil || rho != 0 {
		t.Errorf("constant input rho = %v/%v, want 0", rho, err)
	}
}

func TestSpearmanRhoUncorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	xs := make([]float64, 2000)
	ys := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	rho, err := SpearmanRho(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho) > 0.06 {
		t.Errorf("independent samples rho = %v, want ~0", rho)
	}
}
