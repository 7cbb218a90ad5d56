package optimize

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGoldenSectionQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 3.7) * (x - 3.7) }
	r := GoldenSection(f, 0, 10, 1e-10)
	if math.Abs(r.X-3.7) > 1e-8 {
		t.Fatalf("argmin %v, want 3.7", r.X)
	}
	if r.F > 1e-15 {
		t.Fatalf("min value %v", r.F)
	}
	if r.Evals <= 0 {
		t.Fatal("evals not counted")
	}
}

func TestGoldenSectionBoundaryMin(t *testing.T) {
	// Monotone increasing: minimum at the left edge.
	r := GoldenSection(func(x float64) float64 { return x }, 2, 9, 1e-9)
	if math.Abs(r.X-2) > 1e-6 {
		t.Fatalf("argmin %v, want 2", r.X)
	}
}

func TestBrentMatchesGolden(t *testing.T) {
	f := func(x float64) float64 { return math.Cos(x) + x*x/50 }
	g := GoldenSection(f, 0, 8, 1e-12)
	b := Brent(f, 0, 8, 1e-12)
	if math.Abs(g.X-b.X) > 1e-6 {
		t.Fatalf("golden %v vs brent %v", g.X, b.X)
	}
	if b.Evals >= g.Evals {
		t.Logf("brent used %d evals vs golden %d (expected fewer, not fatal)", b.Evals, g.Evals)
	}
}

func TestBrentSharpValley(t *testing.T) {
	f := func(x float64) float64 { return math.Abs(x - 1.234567) }
	r := Brent(f, -5, 5, 1e-12)
	if math.Abs(r.X-1.234567) > 1e-6 {
		t.Fatalf("argmin %v", r.X)
	}
}

func TestGridScan1DMultimodal(t *testing.T) {
	// Two valleys: x=2 (depth -1) and x=7 (depth -3). Golden section
	// may fall in the wrong one; the grid scan must find x=7.
	f := func(x float64) float64 {
		return -1*math.Exp(-(x-2)*(x-2)) - 3*math.Exp(-(x-7)*(x-7))
	}
	r := GridScan1D(pointwise(f), 0, 10, 100, 3, 1)
	if math.Abs(r.X-7) > 0.01 {
		t.Fatalf("argmin %v, want ~7", r.X)
	}
}

func TestGridScan1DPlateauInf(t *testing.T) {
	// Infeasible region marked +Inf left of 4.
	f := func(x float64) float64 {
		if x < 4 {
			return math.Inf(1)
		}
		return (x - 5) * (x - 5)
	}
	r := GridScan1D(pointwise(f), 0, 10, 50, 4, 1)
	if math.Abs(r.X-5) > 0.01 {
		t.Fatalf("argmin %v, want 5", r.X)
	}
	if math.IsInf(r.F, 1) {
		t.Fatal("failed to escape infeasible plateau")
	}
}

// TestGoldenSectionPlateauIncumbent is the regression test for the
// midpoint bug: on a narrow feasible window inside a +Inf plateau the
// final bracket midpoint can be infeasible even though interior probes
// were finite. GoldenSection must report the incumbent.
func TestGoldenSectionPlateauIncumbent(t *testing.T) {
	f := func(x float64) float64 {
		if x < 6.1 || x > 6.2 {
			return math.Inf(1)
		}
		return x
	}
	r := GoldenSection(f, 0, 10, 2)
	if r.F != f(r.X) {
		t.Fatalf("F=%v inconsistent with f(X)=%v", r.F, f(r.X))
	}
	// With tol=2 the bracket stops wide; the only way to report a
	// finite F is to return the best probe seen, if any was feasible.
	if !math.IsInf(r.F, 1) && !(r.X >= 6.1 && r.X <= 6.2) {
		t.Fatalf("finite F=%v at infeasible X=%v", r.F, r.X)
	}
}

// TestGoldenSectionIncumbentProperty checks, on randomized plateau
// objectives (the documented t0 < t∞ < 2·t0 encoding is exactly such a
// shape), that GoldenSection and Brent return the minimum of the
// points they actually evaluated, and that GoldenSection is never
// worse than +Inf when a dense GridScan1D proves the feasible window
// overlaps its probes.
func TestGoldenSectionIncumbentProperty(t *testing.T) {
	prop := func(rawLo, rawW, rawM float64) bool {
		lo := math.Mod(math.Abs(rawLo), 8)        // plateau edge in [0, 8)
		w := math.Mod(math.Abs(rawW), 2) + 0.05   // feasible width
		mid := lo + math.Mod(math.Abs(rawM), 1)*w // minimum inside window
		obj := func(x float64) float64 {
			if x < lo || x > lo+w {
				return math.Inf(1)
			}
			return (x - mid) * (x - mid)
		}
		check := func(r Result1D, seen []float64) bool {
			if r.F != obj(r.X) && !(math.IsInf(r.F, 1) && math.IsInf(obj(r.X), 1)) {
				return false
			}
			best := math.Inf(1)
			for _, v := range seen {
				if v < best {
					best = v
				}
			}
			return r.F <= best
		}
		var seenG []float64
		g := GoldenSection(func(x float64) float64 {
			v := obj(x)
			seenG = append(seenG, v)
			return v
		}, 0, 10, 1e-9)
		var seenB []float64
		b := Brent(func(x float64) float64 {
			v := obj(x)
			seenB = append(seenB, v)
			return v
		}, 0, 10, 1e-9)
		s := GridScan1D(pointwise(obj), 0, 10, 400, 4, 1)
		// The grid scan always lands in the window (w >= 0.05 > 10/400).
		if math.IsInf(s.F, 1) {
			return false
		}
		return check(g, seenG) && check(b, seenB)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestGridScanParDeterminism pins every scan bit-identical across
// worker counts on a multimodal objective with plateau ties (the
// tie-break path must reduce in the same order regardless of
// scheduling and chunking).
func TestGridScanParDeterminism(t *testing.T) {
	f1 := func(x float64) float64 {
		if x > 3 && x < 4 {
			return -2 // plateau of ties
		}
		return math.Cos(3*x) + x*x/40
	}
	want1 := GridScan1D(pointwise(f1), 0, 10, 97, 3, 1)
	f2 := func(x, y float64) float64 {
		return math.Cos(3*x)*math.Sin(2*y) + (x*x+y*y)/50
	}
	want2 := gridScan2D(rowwise(f2), -5, 5, -5, 5, 31, 29, 3, 1)
	wantR := MinimizeRobust2D(f2, rowwise(f2), -5, 5, -5, 5, 1)
	for _, workers := range []int{0, 2, 3, 8} {
		if got := GridScan1D(pointwise(f1), 0, 10, 97, 3, workers); got != want1 {
			t.Fatalf("GridScan1D(workers=%d) = %+v, want %+v", workers, got, want1)
		}
		if got := gridScan2D(rowwise(f2), -5, 5, -5, 5, 31, 29, 3, workers); got != want2 {
			t.Fatalf("gridScan2D(workers=%d) = %+v, want %+v", workers, got, want2)
		}
		if got := MinimizeRobust2D(f2, rowwise(f2), -5, 5, -5, 5, workers); got != wantR {
			t.Fatalf("MinimizeRobust2D(workers=%d) = %+v, want %+v", workers, got, wantR)
		}
	}
}

func TestGridScan2D(t *testing.T) {
	f := func(x, y float64) float64 {
		return (x-1.5)*(x-1.5) + (y+2.5)*(y+2.5)
	}
	r := gridScan2D(rowwise(f), -10, 10, -10, 10, 30, 30, 4, 1)
	if math.Abs(r.X-1.5) > 0.01 || math.Abs(r.Y+2.5) > 0.01 {
		t.Fatalf("argmin (%v, %v)", r.X, r.Y)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x, y float64) float64 {
		return (1-x)*(1-x) + 100*(y-x*x)*(y-x*x)
	}
	r := NelderMead(f, -1.2, 1, 0.5, 1e-14, 2000)
	if math.Abs(r.X-1) > 1e-3 || math.Abs(r.Y-1) > 1e-3 {
		t.Fatalf("argmin (%v, %v), want (1,1)", r.X, r.Y)
	}
}

func TestNelderMeadWithInfeasibleRegion(t *testing.T) {
	// Constrained: feasible iff x < y < 2x (the delayed-strategy
	// constraint shape), minimize distance to (3, 4.5).
	f := func(x, y float64) float64 {
		if !(x < y && y < 2*x) {
			return math.Inf(1)
		}
		return (x-3)*(x-3) + (y-4.5)*(y-4.5)
	}
	r := NelderMead(f, 3.1, 4.0, 0.2, 1e-12, 1000)
	if math.Abs(r.X-3) > 1e-3 || math.Abs(r.Y-4.5) > 1e-3 {
		t.Fatalf("argmin (%v, %v), want (3, 4.5)", r.X, r.Y)
	}
}

func TestMinimizeRobust2D(t *testing.T) {
	// Multimodal with the global basin off-center.
	f := func(x, y float64) float64 {
		return -2*math.Exp(-((x-7)*(x-7)+(y-3)*(y-3))/4) -
			1*math.Exp(-((x-2)*(x-2)+(y-8)*(y-8))/4)
	}
	r := MinimizeRobust2D(f, rowwise(f), 0, 10, 0, 10, 1)
	if math.Abs(r.X-7) > 0.05 || math.Abs(r.Y-3) > 0.05 {
		t.Fatalf("argmin (%v, %v), want (7, 3)", r.X, r.Y)
	}
}

func TestOptimizerFindsQuadraticMinProperty(t *testing.T) {
	f := func(rawC float64) bool {
		c := math.Mod(math.Abs(rawC), 8) + 1 // minimum in (1, 9)
		obj := func(x float64) float64 { return (x - c) * (x - c) }
		g := GoldenSection(obj, 0, 10, 1e-10)
		b := Brent(obj, 0, 10, 1e-10)
		s := GridScan1D(pointwise(obj), 0, 10, 64, 5, 1)
		return math.Abs(g.X-c) < 1e-6 && math.Abs(b.X-c) < 1e-6 && math.Abs(s.X-c) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	id := func(x float64) float64 { return x }
	id2 := func(x, y float64) float64 { return x + y }
	for _, fn := range []func(){
		func() { GoldenSection(id, 5, 5, 1e-8) },
		func() { Brent(id, 2, 1, 1e-8) },
		func() { GridScan1D(pointwise(id), 0, 1, 1, 0, 1) },
		func() { gridScan2D(rowwise(id2), 0, 0, 0, 1, 10, 10, 1, 1) },
		func() { NelderMead(id2, 0, 0, -1, 1e-8, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestGridScan1DSweepPanicsLikePar pins the input checks of the swept
// scans: a reversed bracket or too few grid points panics, at any
// worker count, as the per-point scans they replaced did.
func TestGridScan1DSweepPanicsLikePar(t *testing.T) {
	id := func(x float64) float64 { return x }
	id2 := func(x, y float64) float64 { return x + y }
	for _, workers := range []int{1, 3} {
		for _, fn := range []func(){
			func() { GridScan1D(pointwise(id), 5, 1, 10, 1, workers) },
			func() { GridScan1D(pointwise(id), 0, 1, 1, 1, workers) },
			func() { gridScan2D(rowwise(id2), 1, 0, 0, 1, 10, 10, 1, workers) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("expected panic")
					}
				}()
				fn()
			}()
		}
	}
}

func BenchmarkGoldenSection(b *testing.B) {
	f := func(x float64) float64 { return (x - 3.7) * (x - 3.7) }
	for i := 0; i < b.N; i++ {
		GoldenSection(f, 0, 10, 1e-10)
	}
}

func BenchmarkBrent(b *testing.B) {
	f := func(x float64) float64 { return (x - 3.7) * (x - 3.7) }
	for i := 0; i < b.N; i++ {
		Brent(f, 0, 10, 1e-10)
	}
}

func BenchmarkNelderMead(b *testing.B) {
	f := func(x, y float64) float64 {
		return (1-x)*(1-x) + 100*(y-x*x)*(y-x*x)
	}
	for i := 0; i < b.N; i++ {
		NelderMead(f, -1.2, 1, 0.5, 1e-12, 500)
	}
}

// pointwise turns a scalar objective into the batch form GridScan1D
// consumes, evaluating it point by point.
func pointwise(f func(float64) float64) func(xs []float64) []float64 {
	return func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = f(x)
		}
		return out
	}
}

// rowwise turns a scalar 2-D objective into the row form gridScan2D and
// MinimizeRobust2D consume.
func rowwise(f func(x, y float64) float64) func(x float64, ys []float64) []float64 {
	return func(x float64, ys []float64) []float64 {
		out := make([]float64, len(ys))
		for j, y := range ys {
			out[j] = f(x, y)
		}
		return out
	}
}

// TestGridScan1DWorkerInvariance pins the chunked sweep: over a
// pointwise objective, GridScan1D returns the same result — argmin,
// value and evaluation count — at every worker count, i.e. however the
// rounds are split into chunks, including on a multimodal objective
// with an +Inf plateau.
func TestGridScan1DWorkerInvariance(t *testing.T) {
	objs := []func(float64) float64{
		func(x float64) float64 { return (x - 3.7) * (x - 3.7) },
		func(x float64) float64 { return math.Cos(3*x) + x/10 },
		func(x float64) float64 {
			if x < 1 {
				return math.Inf(1)
			}
			return math.Sin(5*x) + (x-4)*(x-4)/10
		},
	}
	for oi, f := range objs {
		want := GridScan1D(pointwise(f), 0, 10, 57, 3, 1)
		for _, workers := range []int{2, 3, 8} {
			if got := GridScan1D(pointwise(f), 0, 10, 57, 3, workers); got != want {
				t.Fatalf("obj %d workers %d: %+v != sequential %+v", oi, workers, got, want)
			}
		}
	}
}

// TestGridScan2DWorkerInvariance pins the 2-D row sweep and the
// MinimizeRobust2D composition across worker counts on the
// delayed-constraint shape (+Inf above y = 2x).
func TestGridScan2DWorkerInvariance(t *testing.T) {
	f := func(x, y float64) float64 {
		if y > 2*x {
			return math.Inf(1) // the delayed-constraint shape
		}
		return (x-3)*(x-3) + math.Abs(y-1.4) + math.Sin(x*y)/5
	}
	want := gridScan2D(rowwise(f), 0.1, 8, 0.2, 2, 33, 21, 2, 1)
	wantR := MinimizeRobust2D(f, rowwise(f), 0.1, 8, 0.2, 2, 1)
	for _, workers := range []int{2, 3, 8} {
		if got := gridScan2D(rowwise(f), 0.1, 8, 0.2, 2, 33, 21, 2, workers); got != want {
			t.Fatalf("workers %d: 2D scan %+v != sequential %+v", workers, got, want)
		}
		if got := MinimizeRobust2D(f, rowwise(f), 0.1, 8, 0.2, 2, workers); got != wantR {
			t.Fatalf("workers %d: robust %+v != sequential %+v", workers, got, wantR)
		}
	}
}
