// Package optimize provides the small set of derivative-free
// minimizers the submission-strategy models need: golden-section and
// Brent line searches, coarse-to-fine grid scans in one and two
// dimensions, and a Nelder–Mead simplex for the delayed-resubmission
// surface EJ(t0, t∞).
//
// All routines minimize; negate the objective to maximize. Objectives
// may return +Inf to mark infeasible points (used to encode the
// t0 < t∞ < 2·t0 constraint of the delayed strategy), and every
// routine tolerates such plateaus.
package optimize

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Result1D is the outcome of a one-dimensional minimization.
type Result1D struct {
	X     float64 // argmin
	F     float64 // objective value at X
	Evals int     // number of objective evaluations
}

// Result2D is the outcome of a two-dimensional minimization.
type Result2D struct {
	X, Y  float64 // argmin
	F     float64 // objective value
	Evals int
}

const invPhi = 0.6180339887498949 // (√5-1)/2

// GoldenSection minimizes f over [a, b] to interval tolerance tol
// using golden-section search. It assumes f is unimodal on [a, b];
// on multimodal objectives it converges to *a* local minimum. The
// returned point is the best one actually evaluated: on objectives
// with +Inf plateaus (infeasible-region encoding) the final bracket
// midpoint can sit on the plateau even though interior probes were
// finite, so the incumbent — not the midpoint — is the answer.
func GoldenSection(f func(float64) float64, a, b, tol float64) Result1D {
	if !(a < b) {
		panic(fmt.Sprintf("optimize: invalid bracket [%v, %v]", a, b))
	}
	if tol <= 0 {
		tol = 1e-8
	}
	evals := 0
	bestX, bestF := math.NaN(), math.Inf(1)
	eval := func(x float64) float64 {
		evals++
		v := f(x)
		if v < bestF {
			bestX, bestF = x, v
		}
		return v
	}

	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := eval(x1), eval(x2)
	for b-a > tol {
		if f1 <= f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = eval(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = eval(x2)
		}
	}
	x := 0.5 * (a + b)
	// Prefer the midpoint on ties (the historical answer on smooth
	// objectives); fall back to it only when no probe ever beat it —
	// including the all-infeasible case where bestX was never set.
	if fx := eval(x); fx <= bestF || math.IsNaN(bestX) {
		return Result1D{X: x, F: fx, Evals: evals}
	}
	return Result1D{X: bestX, F: bestF, Evals: evals}
}

// Brent minimizes f over [a, b] using Brent's method (golden section
// with parabolic interpolation acceleration), to x-tolerance tol.
func Brent(f func(float64) float64, a, b, tol float64) Result1D {
	if !(a < b) {
		panic(fmt.Sprintf("optimize: invalid bracket [%v, %v]", a, b))
	}
	if tol <= 0 {
		tol = 1e-8
	}
	const cgold = 0.3819660112501051
	const zeps = 1e-18
	evals := 0
	eval := func(x float64) float64 { evals++; return f(x) }

	x := a + cgold*(b-a)
	w, v := x, x
	fx := eval(x)
	fw, fv := fx, fx
	var d, e float64

	for iter := 0; iter < 200; iter++ {
		xm := 0.5 * (a + b)
		tol1 := tol*math.Abs(x) + zeps
		tol2 := 2 * tol1
		if math.Abs(x-xm) <= tol2-0.5*(b-a) {
			break
		}
		useGolden := true
		if math.Abs(e) > tol1 {
			// Parabolic fit through (v,fv), (w,fw), (x,fx).
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			}
			q = math.Abs(q)
			etmp := e
			e = d
			if math.Abs(p) < math.Abs(0.5*q*etmp) && p > q*(a-x) && p < q*(b-x) {
				d = p / q
				u := x + d
				if u-a < tol2 || b-u < tol2 {
					d = math.Copysign(tol1, xm-x)
				}
				useGolden = false
			}
		}
		if useGolden {
			if x >= xm {
				e = a - x
			} else {
				e = b - x
			}
			d = cgold * e
		}
		var u float64
		if math.Abs(d) >= tol1 {
			u = x + d
		} else {
			u = x + math.Copysign(tol1, d)
		}
		fu := eval(u)
		if fu <= fx {
			if u >= x {
				a = x
			} else {
				b = x
			}
			v, w, x = w, x, u
			fv, fw, fx = fw, fx, fu
		} else {
			if u < x {
				a = u
			} else {
				b = u
			}
			if fu <= fw || w == x {
				v, fv = w, fw
				w, fw = u, fu
			} else if fu <= fv || v == x || v == w {
				v, fv = u, fu
			}
		}
	}
	return Result1D{X: x, F: fx, Evals: evals}
}

// Workers normalizes a parallelism degree: values <= 0 mean "all
// cores" (runtime.GOMAXPROCS(0)); 1 means sequential execution on the
// caller's goroutine.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ParallelFor runs body(i) for i in [0, n) on up to `workers`
// goroutines (work-stealing by atomic counter). With workers <= 1 it
// degenerates to a plain loop on the caller's goroutine. body must be
// safe for concurrent invocation when workers > 1. It is the one
// worker pool shared by the grid scans, the sharded Monte Carlo
// simulators and the experiments harness.
func ParallelFor(n, workers int, body func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
}

// GridScan1D minimizes over [a, b] by evaluating n+1 uniformly spaced
// points and then refining around the best point with `refine` further
// rounds, each shrinking the window by the grid spacing. It is robust
// to multimodality (up to grid resolution), which matters for the
// paper's EJ(t∞) profiles whose optimum can jump between local minima
// as b changes (Table 2 shows exactly such jumps).
//
// The objective is a sorted-query sweep: each round hands its whole
// ascending grid to fb in contiguous chunks (one chunk per worker, up
// to `workers` goroutines, <= 0 meaning all cores), so batch-capable
// objectives — the ECDF prefix-sum kernels — answer a round in one
// O(n + G) sweep. fb must be pointwise (fb(xs)[i] depends only on
// xs[i]) and, with workers != 1, safe for concurrent calls. Results are
// bit-identical for every worker count: the grid points are fixed per
// round and the incumbent reduction always runs sequentially in index
// order.
func GridScan1D(fb func(xs []float64) []float64, a, b float64, n, refine, workers int) Result1D {
	if !(a < b) || n < 2 {
		panic(fmt.Sprintf("optimize: invalid grid scan [%v, %v] n=%d", a, b, n))
	}
	workers = Workers(workers)
	evals := 0
	bestX, bestF := a, math.Inf(1)
	lo, hi := a, b
	grid := make([]float64, n+1)
	vals := make([]float64, n+1)
	for round := 0; round <= refine; round++ {
		h := (hi - lo) / float64(n)
		for i := 0; i <= n; i++ {
			grid[i] = lo + float64(i)*h
		}
		chunks := workers
		if chunks > n+1 {
			chunks = n + 1
		}
		if chunks <= 1 {
			copy(vals, fb(grid))
		} else {
			per := (n + chunks) / chunks // ⌈(n+1)/chunks⌉
			ParallelFor(chunks, chunks, func(w int) {
				loI := w * per
				hiI := loI + per
				if hiI > n+1 {
					hiI = n + 1
				}
				if loI >= hiI {
					return
				}
				copy(vals[loI:hiI], fb(grid[loI:hiI]))
			})
		}
		evals += n + 1
		for i := 0; i <= n; i++ {
			x := lo + float64(i)*h
			if v := vals[i]; v < bestF || (v == bestF && x < bestX) {
				bestX, bestF = x, v
			}
		}
		lo = math.Max(a, bestX-h)
		hi = math.Min(b, bestX+h)
		if hi <= lo {
			break
		}
	}
	return Result1D{X: bestX, F: bestF, Evals: evals}
}

// gridScan2D minimizes over the rectangle [ax, bx] × [ay, by] with an
// (nx+1) × (ny+1) scan refined `refine` times around the incumbent.
// Each grid row (fixed x, the full ascending y grid) is answered by one
// frow call, and rows fan across up to `workers` goroutines. This is
// the natural shape for the delayed-resubmission surface, where a
// whole row shares one shift = t0 and the ECDF cross-term kernel can
// answer the row in a single merged walk. frow must be pointwise per
// row (result j depends only on (x, ys[j])), must not retain or modify
// ys, and must be safe for concurrent calls when workers != 1; the
// reduction is a sequential row-major pass, so results are
// bit-identical at every worker count.
func gridScan2D(frow func(x float64, ys []float64) []float64, ax, bx, ay, by float64, nx, ny, refine, workers int) Result2D {
	if !(ax < bx) || !(ay < by) || nx < 2 || ny < 2 {
		panic(fmt.Sprintf("optimize: invalid 2D grid scan [%v,%v]x[%v,%v]", ax, bx, ay, by))
	}
	workers = Workers(workers)
	evals := 0
	bestX, bestY, bestF := ax, ay, math.Inf(1)
	lox, hix, loy, hiy := ax, bx, ay, by
	ys := make([]float64, ny+1)
	vals := make([]float64, (nx+1)*(ny+1))
	for round := 0; round <= refine; round++ {
		hx := (hix - lox) / float64(nx)
		hy := (hiy - loy) / float64(ny)
		for j := 0; j <= ny; j++ {
			ys[j] = loy + float64(j)*hy
		}
		ParallelFor(nx+1, workers, func(i int) {
			copy(vals[i*(ny+1):(i+1)*(ny+1)], frow(lox+float64(i)*hx, ys))
		})
		evals += (nx + 1) * (ny + 1)
		for i := 0; i <= nx; i++ {
			for j := 0; j <= ny; j++ {
				if v := vals[i*(ny+1)+j]; v < bestF {
					bestX, bestY, bestF = lox+float64(i)*hx, loy+float64(j)*hy, v
				}
			}
		}
		lox = math.Max(ax, bestX-hx)
		hix = math.Min(bx, bestX+hx)
		loy = math.Max(ay, bestY-hy)
		hiy = math.Min(by, bestY+hy)
		if hix <= lox || hiy <= loy {
			break
		}
	}
	return Result2D{X: bestX, Y: bestY, F: bestF, Evals: evals}
}

// NelderMead minimizes a 2-D objective starting from (x0, y0) with
// initial simplex scale `scale`, for at most maxIter iterations or
// until the simplex function spread falls below tol. Infeasible
// regions may be encoded as +Inf. The search restarts from the
// incumbent with a 10× smaller simplex up to three times, which
// un-sticks simplices collapsed against a constraint boundary.
func NelderMead(f func(x, y float64) float64, x0, y0, scale, tol float64, maxIter int) Result2D {
	if scale <= 0 {
		panic(fmt.Sprintf("optimize: scale must be positive, got %v", scale))
	}
	best := nelderMeadOnce(f, x0, y0, scale, tol, maxIter)
	for i := 0; i < 3; i++ {
		scale /= 10
		r := nelderMeadOnce(f, best.X, best.Y, scale, tol, maxIter)
		r.Evals += best.Evals
		if r.F < best.F {
			best = r
		} else {
			best.Evals = r.Evals
			break
		}
	}
	return best
}

func nelderMeadOnce(f func(x, y float64) float64, x0, y0, scale, tol float64, maxIter int) Result2D {
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 500
	}
	type vertex struct {
		x, y, f float64
	}
	evals := 0
	eval := func(x, y float64) float64 { evals++; return f(x, y) }

	simplex := [3]vertex{
		{x0, y0, eval(x0, y0)},
		{x0 + scale, y0, eval(x0+scale, y0)},
		{x0, y0 + scale, eval(x0, y0+scale)},
	}
	sortSimplex := func() {
		for i := 1; i < 3; i++ {
			for j := i; j > 0 && simplex[j].f < simplex[j-1].f; j-- {
				simplex[j], simplex[j-1] = simplex[j-1], simplex[j]
			}
		}
	}
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	for iter := 0; iter < maxIter; iter++ {
		sortSimplex()
		best, worst := simplex[0], simplex[2]
		if !math.IsInf(worst.f, 1) && math.Abs(worst.f-best.f) < tol {
			break
		}
		// Centroid of all but worst.
		cx := (simplex[0].x + simplex[1].x) / 2
		cy := (simplex[0].y + simplex[1].y) / 2

		rx, ry := cx+alpha*(cx-worst.x), cy+alpha*(cy-worst.y)
		fr := eval(rx, ry)
		switch {
		case fr < best.f:
			ex, ey := cx+gamma*(rx-cx), cy+gamma*(ry-cy)
			fe := eval(ex, ey)
			if fe < fr {
				simplex[2] = vertex{ex, ey, fe}
			} else {
				simplex[2] = vertex{rx, ry, fr}
			}
		case fr < simplex[1].f:
			simplex[2] = vertex{rx, ry, fr}
		default:
			kx, ky := cx+rho*(worst.x-cx), cy+rho*(worst.y-cy)
			fk := eval(kx, ky)
			if fk < worst.f {
				simplex[2] = vertex{kx, ky, fk}
			} else {
				for i := 1; i < 3; i++ {
					simplex[i].x = best.x + sigma*(simplex[i].x-best.x)
					simplex[i].y = best.y + sigma*(simplex[i].y-best.y)
					simplex[i].f = eval(simplex[i].x, simplex[i].y)
				}
			}
		}
	}
	sortSimplex()
	return Result2D{X: simplex[0].x, Y: simplex[0].y, F: simplex[0].f, Evals: evals}
}

// MinimizeRobust2D combines a coarse grid scan with a Nelder–Mead
// polish: the scan locates the basin, the simplex refines within it.
// This is the default optimizer for EJ(t0, t∞). The coarse scan runs
// in row-sweep mode over frow (see gridScan2D), fanned across up to
// `workers` goroutines; the (cheap) simplex polish runs sequentially
// on the scalar objective f, so results are bit-identical for every
// worker count. frow must agree pointwise with f.
func MinimizeRobust2D(f func(x, y float64) float64, frow func(x float64, ys []float64) []float64, ax, bx, ay, by float64, workers int) Result2D {
	coarse := gridScan2D(frow, ax, bx, ay, by, 40, 40, 2, workers)
	scale := math.Max((bx-ax)/80, (by-ay)/80)
	polish := NelderMead(f, coarse.X, coarse.Y, scale, 1e-9, 300)
	polish.Evals += coarse.Evals
	if polish.F <= coarse.F {
		return polish
	}
	coarse.Evals = polish.Evals
	return coarse
}
