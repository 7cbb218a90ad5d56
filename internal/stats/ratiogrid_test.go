package stats

import (
	"math"
	"math/rand"
	"testing"
)

// checkRatioGrid answers the grid t = lo + k·h (k < G) at ratio r and
// scale s through IntegralProdRatioGrid and through one walk per point,
// fails unless every point is within ProdRatioGridTol·(walk + (r-1)·t)
// of its walk, and returns the worst scaled error.
func checkRatioGrid(t *testing.T, e *ECDF, r, lo, h, s float64, G int) float64 {
	t.Helper()
	out := make([]float64, G)
	e.IntegralProdRatioGrid(r, lo, h, s, out)
	worst := 0.0
	for k, got := range out {
		x := lo + float64(k)*h
		walk := e.IntegralProdOneMinusF(r*x-x, x, s)
		err := math.Abs(got-walk) / (walk + (r-1)*x)
		if !(err <= ProdRatioGridTol) {
			t.Fatalf("support %v, r %v lo %v h %v s %v G %d: point %d (t %v) kernel %v, walk %v (scaled error %.3g)",
				e.Support(), r, lo, h, s, G, k, x, got, walk, err)
		}
		worst = math.Max(worst, err)
	}
	if got, walk := out[0], e.IntegralProdOneMinusF(r*lo-lo, lo, s); got != walk {
		t.Fatalf("anchor %v, walk %v: the first point must be the walk", got, walk)
	}
	return worst
}

// TestProdRatioGridMatchesWalks holds the one-pass ratio-grid kernel to
// its stated bound on random ECDFs (duplicates, point masses at zero,
// integer support where many events coincide) over grids that start
// below, inside and above the support, at the paper's ratios and
// random ones: against the walks at every point, and against the exact
// oracle at every 25th point of every 20th grid.
func TestProdRatioGridMatchesWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	worst, grids := 0.0, 0
	for trial := 0; trial < 3000; trial++ {
		var e *ECDF
		if trial%2 == 0 {
			e = randomECDF(rng)
		} else {
			xs := make([]float64, 1+rng.Intn(150))
			for i := range xs {
				xs[i] = float64(rng.Intn(30))
			}
			e = MustECDF(xs)
		}
		s := []float64{1, 0.9, 0.5, rng.Float64()}[rng.Intn(4)]
		r := []float64{1.1, 1.5, 2, 1 + rng.Float64()}[rng.Intn(4)]
		if !(r > 1) {
			r = 1.5
		}
		lo := 1e-3 + rng.Float64()*1.2*e.Max()
		h := rng.Float64() * e.Max() / 40
		if trial%4 == 1 {
			lo, h = math.Round(lo)+1, 0.5 // on integer support
		}
		if !(h > 0) {
			h = 1
		}
		G := 1 + rng.Intn(401)
		worst = math.Max(worst, checkRatioGrid(t, e, r, lo, h, s, G))
		if trial%20 == 0 {
			checkRatioGridOracle(t, e, r, lo, h, s, G, 25)
		}
		grids++
	}
	t.Logf("%d grids: worst scaled error %.3g (bound %g)", grids, worst, ProdRatioGridTol)
}

// TestProdRatioGridFallsBackToWalks: shapes outside the one pass (no
// positive step, ratio <= 1) are answered by the per-point walks bit
// for bit; negative support cannot be built at all.
func TestProdRatioGridFallsBackToWalks(t *testing.T) {
	e := MustECDF([]float64{3, 5, 5, 9, 14})
	for _, c := range []struct{ r, lo, h float64 }{
		{1.5, 4, 0},
		{1, 4, 0.5},
		{1.5, 0, 0.5},
	} {
		out := make([]float64, 7)
		e.IntegralProdRatioGrid(c.r, c.lo, c.h, 0.9, out)
		for k, got := range out {
			x := c.lo + float64(k)*c.h
			if walk := e.IntegralProdOneMinusF(c.r*x-x, x, 0.9); math.Float64bits(got) != math.Float64bits(walk) {
				t.Fatalf("%+v point %d: %v, walk %v", c, k, got, walk)
			}
		}
	}
	if _, err := NewECDF([]float64{-2, 3, 5, 9}); err == nil {
		t.Fatal("negative support accepted")
	}
}

// FuzzProdRatioGrid checks the ratio-grid kernel against the per-point
// walks within ProdRatioGridTol on a random small ECDF — real-valued or
// integer support, optionally with a point mass at 0 — at a ratio in
// (1, 2] and a grid of 1 to 401 points placed relative to the support.
func FuzzProdRatioGrid(f *testing.F) {
	f.Add(int64(1), uint8(40), false, false, 0.5, 0.3, 0.01, uint16(401), 0.9)
	f.Add(int64(2), uint8(12), true, true, 1.0, 0.5, 0.02, uint16(50), 1.0)
	f.Add(int64(3), uint8(1), true, false, 0.1, 0.0, 0.5, uint16(3), 0.4)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, integer, zero bool, ratio, lo, h float64, G uint16, s float64) {
		for _, v := range []float64{ratio, lo, h, s} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+int(n)%64)
		for i := range xs {
			if integer {
				xs[i] = float64(1 + rng.Intn(25))
			} else {
				xs[i] = 1e-3 + rng.Float64()*100
			}
		}
		if zero {
			xs[0] = 0
		}
		e := MustECDF(xs)
		r := 1 + math.Max(math.Mod(math.Abs(ratio), 1), 1e-3)
		span := 1.5 * e.Max()
		t0 := 1e-3 + math.Mod(math.Abs(lo), 1)*span
		step := (1e-4 + math.Mod(math.Abs(h), 1)) * span / 50
		if integer && math.Abs(h) < 0.5 {
			t0, step = math.Round(t0)+1, 0.5 // events coincide on the grid
		}
		sc := math.Mod(math.Abs(s), 1)
		if sc == 0 {
			sc = 1
		}
		checkRatioGrid(t, e, r, t0, step, sc, 1+int(G)%401)
	})
}
