package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"gridstrat/internal/optimize"
	"gridstrat/internal/stats"
)

// DelayedParams are the two knobs of the delayed-resubmission strategy
// (paper §6): a copy of the job is submitted every T0 seconds while
// nothing has started, and each copy is canceled TInf seconds after
// its own submission. The constraint T0 < TInf <= 2·T0 keeps at most
// two copies in flight.
type DelayedParams struct {
	T0   float64
	TInf float64
}

// Validate checks 0 < T0 < TInf <= 2·T0.
func (p DelayedParams) Validate() error {
	if !(p.T0 > 0) {
		return fmt.Errorf("core: delayed t0 must be positive, got %v", p.T0)
	}
	if !(p.T0 < p.TInf) {
		return fmt.Errorf("core: delayed requires t0 < t∞, got t0=%v t∞=%v", p.T0, p.TInf)
	}
	if p.TInf > 2*p.T0 {
		return fmt.Errorf("core: delayed requires t∞ <= 2·t0 (at most 2 copies), got t0=%v t∞=%v", p.T0, p.TInf)
	}
	return nil
}

// Ratio returns TInf/T0.
func (p DelayedParams) Ratio() float64 { return p.TInf / p.T0 }

// DelayedSurvival returns the exact survival function of the total
// latency J under the delayed strategy: P(J > t).
//
// With copies submitted at s_k = (k-1)·T0 while nothing runs, and copy
// k canceled at s_k + TInf, "no copy started by t" factorizes over the
// copies submitted by t:
//
//	P(J > t) = Π_k (1 - F̃R(min(t - s_k, t∞))),
//
// where copies whose window fully elapsed contribute the constant
// q = 1 - F̃R(t∞). Because TInf <= 2·T0, at most two factors are ever
// partial, so this costs O(1) per evaluation.
func DelayedSurvival(m Model, p DelayedParams, t float64) float64 {
	if t <= 0 {
		return 1
	}
	if t < p.T0 { // interval 0: one copy, q never needed
		return 1 - m.Ftilde(t)
	}
	q := 1 - m.Ftilde(p.TInf)
	jf := math.Floor(t / p.T0) // interval index >= 1: t ∈ [j·T0, (j+1)·T0)
	u := t - jf*p.T0
	if u < p.TInf-p.T0 {
		// Copies j and j+1 are both racing.
		return powFloorExp(q, jf-1) *
			(1 - m.Ftilde(u+p.T0)) * (1 - m.Ftilde(u))
	}
	// Copy j was canceled at (j-1)·T0 + TInf; only copy j+1 races.
	return powFloorExp(q, jf) * (1 - m.Ftilde(u))
}

// delayedMoments returns E[J] and E[J²] of the delayed strategy in
// closed form. Substituting u = t - j·T0 in the survival integral
// makes every interval integral independent of j, so the series in j
// is geometric:
//
//	E[J]  = IA + (C + q·D)/(1-q)
//	E[J²] = 2·[IA2 + (Cu + q·Du)/(1-q) + T0·(C + q·D)/(1-q)²]
//
// with IA = ∫₀^{T0}(1-F̃), C = ∫₀^{TInf-T0}(1-F̃(u+T0))(1-F̃(u))du,
// D = ∫_{TInf-T0}^{T0}(1-F̃), and IA2, Cu, Du their u-weighted twins.
// Every integral is exact for the empirical model.
func delayedMoments(m Model, p DelayedParams) (ej, ej2 float64) {
	k := kernelsOf(m)
	q := 1 - k.Ftilde(p.TInf)
	if q >= 1 {
		return math.Inf(1), math.Inf(1)
	}
	t0, w := p.T0, p.TInf-p.T0

	ia := k.IntOneMinusFPow(t0, 1)
	ia2 := k.IntUOneMinusFPow(t0, 1)
	c, cu := k.IntProdBothOneMinusF(w, t0) // both cross terms, one walk
	d := ia - k.IntOneMinusFPow(w, 1)
	du := ia2 - k.IntUOneMinusFPow(w, 1)

	ej = ia + (c+q*d)/(1-q)
	ej2 = 2 * (ia2 + (cu+q*du)/(1-q) + t0*(c+q*d)/((1-q)*(1-q)))
	return ej, ej2
}

// ejDelayedFrom is delayedMoments' EJ from its three integrals: ia
// over [0, t0], iw over [0, t∞-t0] and the plain cross term c, with
// q = 1-F̃(t∞).
func ejDelayedFrom(ia, iw, c, q float64) float64 {
	d := ia - iw
	return ia + (c+q*d)/(1-q)
}

// delayedCellQ returns q = 1-F̃(t∞) at (t0, t∞ = ratio·t0), and false
// where EJ is +Inf: invalid parameters or no success mass.
func delayedCellQ(k kernels, t0, ratio float64) (float64, bool) {
	p := DelayedParams{T0: t0, TInf: ratio * t0}
	if p.Validate() != nil {
		return 0, false
	}
	q := 1 - k.Ftilde(p.TInf)
	return q, !(q >= 1)
}

// ejDelayedAt is EJDelayed at (t0, t∞ = ratio·t0) through the scalar
// integrals and the plain cross term alone: the allocation-free
// objective of the per-ratio Brent polish. Values are identical to
// ejDelayedRatioBatch's.
func ejDelayedAt(k kernels, ratio, t0 float64) float64 {
	q, ok := delayedCellQ(k, t0, ratio)
	if !ok {
		return math.Inf(1)
	}
	w := ratio*t0 - t0
	return ejDelayedFrom(k.IntOneMinusFPow(t0, 1), k.IntOneMinusFPow(w, 1), k.IntProdOneMinusF(w, t0), q)
}

// ejDelayedRatioBatch evaluates EJDelayed along an ascending t0 grid
// with t∞ = ratio·t0 fixed (one per-ratio refinement round), writing
// out[i] at t0 = qs[i]. qs holds the grid in its first len(out)
// entries and is filled with the w = t∞ - t0 grid in the rest, so one
// batch call answers both pow integrals. The shift of the cross term
// varies per point, so each cross term is its own windowed walk over
// [0, w] — already proportional to the window, not the support — and
// only its plain half, since EJ does not need the u-weighted one.
// Values are identical to per-point EJDelayed calls.
func ejDelayedRatioBatch(k kernels, ratio float64, qs, out []float64) {
	n := len(out)
	t0s, ws := qs[:n], qs[n:]
	for i, t0 := range t0s {
		ws[i] = ratio*t0 - t0
	}
	ints := k.IntOneMinusFPowBatch(qs, 1)
	for i, t0 := range t0s {
		q, ok := delayedCellQ(k, t0, ratio)
		if !ok {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = ejDelayedFrom(ints[i], ints[n+i], k.IntProdOneMinusF(ws[i], t0), q)
	}
}

// ejDelayedRatioGrid evaluates EJDelayed on the grid t0s × ratios,
// returning vals[j·len(t0s)+i] at (t0s[i], ratios[j]): the coarse
// round every ratio's t0 search shares, and (with one t0) a row of the
// (t0, ratio) surface scans. One batch call answers the pow integrals
// of t0 and of every ratio's w column. A t0 row shares the cross
// term's shift = t0, so a model with its own kernels answers the plain
// cross terms of every ratio from one merged walk. A model scanned
// pointwise walks each valid cell's plain term alone instead — its
// merged "walk" would run the u-weighted half as a second full walk
// per cell — and so does a row whose w values float rounding left
// non-monotone. Rows fan across up to `workers` goroutines in
// contiguous chunks; rows reached after ctx is done read +Inf. Values
// are identical to per-cell EJDelayed calls, and column j to
// ejDelayedRatioBatch's values for ratios[j].
func ejDelayedRatioGrid(ctx context.Context, k kernels, ratios, t0s []float64, workers int) []float64 {
	n, nr := len(t0s), len(ratios)
	buf := make([]float64, (2*nr+1)*n)
	qs, vals := buf[:(nr+1)*n], buf[(nr+1)*n:] // qs: t0s, then each ratio's w column
	copy(qs, t0s)
	for j, r := range ratios {
		col := qs[(j+1)*n : (j+2)*n]
		for i, t0 := range t0s {
			// Same expression as delayedMoments: w = TInf - T0 with
			// TInf = ratio·t0.
			col[i] = r*t0 - t0
		}
	}
	ints := k.IntOneMinusFPowBatch(qs, 1)
	_, scalar := k.(pointwise)
	chunks := optimize.Workers(workers)
	if chunks > n {
		chunks = n
	}
	per := (n + chunks - 1) / chunks
	optimize.ParallelFor(chunks, chunks, func(c int) {
		ws := make([]float64, nr) // the w values of one t0 row
		for i := c * per; i < n && i < (c+1)*per; i++ {
			if ctx.Err() != nil {
				for j := range ratios {
					vals[j*n+i] = math.Inf(1)
				}
				continue
			}
			t0 := t0s[i]
			for j := range ratios {
				ws[j] = qs[(j+1)*n+i]
			}
			var cs []float64
			if !scalar && sort.Float64sAreSorted(ws) {
				cs, _ = k.IntProdBothBatch(ws, t0)
			}
			for j, r := range ratios {
				q, ok := delayedCellQ(k, t0, r)
				if !ok {
					vals[j*n+i] = math.Inf(1)
					continue
				}
				var c float64
				if cs != nil {
					c = cs[j]
				} else {
					c = k.IntProdOneMinusF(ws[j], t0)
				}
				vals[j*n+i] = ejDelayedFrom(ints[i], ints[(j+1)*n+i], c, q)
			}
		}
	})
	return vals
}

// EJDelayed returns the exact expected total latency of the delayed
// strategy (the quantity the paper's Eq. 5 approximates; see
// EJDelayedPaper for the paper's own formula). It returns +Inf for
// invalid parameters or a timeout with no success probability.
func EJDelayed(m Model, p DelayedParams) float64 {
	if p.Validate() != nil {
		return math.Inf(1)
	}
	ej, _ := delayedMoments(m, p)
	return ej
}

// SigmaDelayed returns the exact standard deviation of the total
// latency of the delayed strategy.
func SigmaDelayed(m Model, p DelayedParams) float64 {
	if p.Validate() != nil {
		return math.Inf(1)
	}
	ej, ej2 := delayedMoments(m, p)
	if math.IsInf(ej, 1) {
		return math.Inf(1)
	}
	v := ej2 - ej*ej
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// NParallelGivenLatency returns N‖(l): the time-averaged number of
// copies in the system over a run whose total latency was l (paper
// §6.1). The case split follows the interval structure: after the
// first T0 with one copy, each full T0-period contributes TInf of
// copy-seconds (two copies while the older one lives, one after its
// cancellation), plus the partial last period.
func NParallelGivenLatency(l float64, p DelayedParams) float64 {
	if l <= 0 {
		return 1
	}
	n := int(math.Floor(l / p.T0))
	if n == 0 {
		return 1
	}
	t0, tInf := p.T0, p.TInf
	fn := float64(n)
	if l < (fn-1)*t0+tInf {
		// Interval I0: the older copy is still alive at l.
		return (t0 + (fn-1)*tInf + 2*(l-fn*t0)) / l
	}
	// Interval I1: the older copy was canceled at (n-1)·T0 + TInf.
	return (t0 + (fn-1)*tInf + 2*(tInf-t0) + (l - (fn-1)*t0 - tInf)) / l
}

// delayedExpectCells is the number of integration cells per T0-period
// used by ExpectDelayed; the cell *masses* are exact (survival
// differences), only the variation of g within a cell is approximated.
const delayedExpectCells = 1024

// ExpectDelayed returns E[g(J)] for the delayed strategy by exact-mass
// Stieltjes summation over the survival function: each cell of width
// T0/delayedExpectCells carries probability G(a)-G(b), evaluated at
// the cell midpoint. The series over periods stops when the residual
// tail mass drops below 1e-12.
func ExpectDelayed(m Model, p DelayedParams, g func(l float64) float64) float64 {
	return expectDelayed(m, p, delayedExpectCells, g)
}

// expectDelayed is ExpectDelayed with `cells` cells per T0-period.
//
// Every period puts its cell edges at the same offsets u = i·T0/cells,
// and within period j >= 1 the survival is q^(j-1)·(1-F̃(u+T0))·(1-F̃(u))
// while both copies race (u < t∞-t0) and q^j·(1-F̃(u)) after, so the
// two factors are tabulated once per call and each period costs two
// powers of q plus O(cells) table lookups: F̃ is evaluated at most
// 2·cells+1 times however many periods the series runs.
func expectDelayed(m Model, p DelayedParams, cells int, g func(l float64) float64) float64 {
	if err := p.Validate(); err != nil {
		return math.NaN()
	}
	q := 1 - m.Ftilde(p.TInf)
	if q >= 1 {
		return math.NaN()
	}
	h := p.T0 / float64(cells)
	w := p.TInf - p.T0
	tables := make([]float64, 2*(cells+1))
	one := tables[:cells+1]  // one[i] = 1-F̃(i·h)
	both := tables[cells+1:] // both[i] = 1-F̃(i·h+T0), for i <= racing
	racing := 0              // cells 1..racing have i·h < w: both copies race
	for i := 1; i <= cells; i++ {
		u := float64(i) * h
		one[i] = 1 - m.Ftilde(u)
		if u < w {
			both[i] = 1 - m.Ftilde(u+p.T0)
			racing = i
		}
	}
	sum := 0.0
	prevG := 1.0
	for j := 0; ; j++ {
		base := float64(j) * p.T0
		var qPrev, qCur float64
		if j > 0 {
			qPrev, qCur = powFloorExp(q, float64(j-1)), powFloorExp(q, float64(j))
		}
		for i := 1; i <= cells; i++ {
			var gt float64
			switch {
			case j == 0:
				gt = one[i]
			case i <= racing:
				gt = qPrev * both[i] * one[i]
			default:
				gt = qCur * one[i]
			}
			t := base + float64(i)*h
			if mass := prevG - gt; mass > 0 {
				sum += mass * g(t-h/2)
			}
			prevG = gt
		}
		if prevG < 1e-12 || j > 10000 {
			// Past 10000 periods q is extremely close to 1: accept the
			// truncation.
			break
		}
	}
	return sum
}

// NParallelExpected returns E[N‖(J)]: the average number of parallel
// copies the delayed strategy keeps in the system, to be compared with
// b for the multiple-submission strategy.
func NParallelExpected(m Model, p DelayedParams) float64 {
	return nParallelExpectedCells(m, p, delayedExpectCells)
}

// nParallelExpectedCells is NParallelExpected with `cells` cells per
// T0-period (see expectDelayed).
func nParallelExpectedCells(m Model, p DelayedParams, cells int) float64 {
	return expectDelayed(m, p, cells, func(l float64) float64 {
		return NParallelGivenLatency(l, p)
	})
}

// DelayedEvaluate bundles the exact EJ, σJ and E[N‖] of the delayed
// strategy at the given parameters.
func DelayedEvaluate(m Model, p DelayedParams) (Evaluation, error) {
	if err := p.Validate(); err != nil {
		return Evaluation{}, err
	}
	ej, ej2 := delayedMoments(m, p)
	if math.IsInf(ej, 1) {
		return Evaluation{}, fmt.Errorf("core: delayed strategy diverges at t0=%v t∞=%v (no success mass)", p.T0, p.TInf)
	}
	v := ej2 - ej*ej
	if v < 0 {
		v = 0
	}
	return Evaluation{
		EJ:       ej,
		Sigma:    math.Sqrt(v),
		Parallel: NParallelExpected(m, p),
	}, nil
}

// EJDelayedPaper evaluates the expected latency using the paper's own
// interval formulas for FJ (§6, the pre-derivation CDF definitions
// feeding Eq. 5), integrated as EJ = ∫(1-FJ).
//
// Note: the paper's I0-interval formula P(J<t) = P(J<n·t0) +
// q^{n-1}·(A + B - A·B) with A = F̃(t-(n-1)t0) - F̃(t0), B = F̃(t-n·t0)
// over-counts runs where copy n started before t0 — in those runs copy
// n+1 is never submitted, yet B credits it. The exact union is
// A + B·(1-F̃(t-(n-1)t0)). The paper's FJ therefore sits slightly
// above the exact law and EJDelayedPaper slightly below EJDelayed;
// both are exposed so the gap can be measured (see EXPERIMENTS.md).
func EJDelayedPaper(m Model, p DelayedParams) float64 {
	if p.Validate() != nil {
		return math.Inf(1)
	}
	q := 1 - m.Ftilde(p.TInf)
	if q >= 1 {
		return math.Inf(1)
	}
	t0, tInf := p.T0, p.TInf
	ft0 := m.Ftilde(t0)

	// EJ = ∫ (1-FJ). First interval [0, t0): FJ = F̃.
	ej := m.IntOneMinusFPow(t0, 1)

	// Walk intervals I0_n, I1_n keeping the running base FJ value, on
	// a uniform grid (trapezoid); the paper's formulas are not exactly
	// integrable over a step ECDF because of the A·B product term.
	const cells = 2048
	base := ft0 // FJ at n·t0 for n=1
	for n := 1; ; n++ {
		fn := float64(n)
		qn1 := stats.PowInt(q, n-1)

		// I0_n = [n·t0, (n-1)·t0 + tInf].
		a0, b0 := fn*t0, (fn-1)*t0+tInf
		h := (b0 - a0) / cells
		prev := paperI0(m, base, qn1, ft0, a0, fn, t0)
		for i := 1; i <= cells; i++ {
			t := a0 + float64(i)*h
			cur := paperI0(m, base, qn1, ft0, t, fn, t0)
			ej += h * (clamp01(1-prev) + clamp01(1-cur)) / 2
			prev = cur
		}
		endI0 := paperI0(m, base, qn1, ft0, b0, fn, t0)

		// I1_n = [(n-1)·t0 + tInf, (n+1)·t0].
		a1, b1 := b0, (fn+1)*t0
		qn := qn1 * q
		h = (b1 - a1) / cells
		prev = endI0 + qn*m.Ftilde(a1-fn*t0)
		for i := 1; i <= cells; i++ {
			t := a1 + float64(i)*h
			cur := endI0 + qn*m.Ftilde(t-fn*t0)
			ej += h * (clamp01(1-prev) + clamp01(1-cur)) / 2
			prev = cur
		}
		base = endI0 + qn*ft0 // FJ at (n+1)·t0

		if 1-base < 1e-12 || qn < 1e-14 {
			// Residual tail: bound by geometric decay q per period of
			// length t0.
			if q < 1 {
				ej += clamp01(1-base) * t0 / (1 - q)
			}
			break
		}
		if n > 10000 {
			break
		}
	}
	return ej
}

// paperI0 evaluates the paper's I0-interval CDF formula at t.
func paperI0(m Model, base, qn1, ft0, t, fn, t0 float64) float64 {
	a := m.Ftilde(t-(fn-1)*t0) - ft0
	b := m.Ftilde(t - fn*t0)
	return base + qn1*(a+b-a*b)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// OptimizeDelayed minimizes the exact EJ over (t0, t∞) subject to
// t0 < t∞ <= 2·t0 (paper Figure 5's surface minimum). The search is
// over the rectangle (t0, ratio) to keep the feasible set box-shaped.
func OptimizeDelayed(m Model) (DelayedParams, Evaluation) {
	p, ev, _ := OptimizeDelayedCtx(context.Background(), m, 1)
	return p, ev
}

// OptimizeDelayedCtx is OptimizeDelayed with cancellation (a done ctx
// short-circuits the remaining surface evaluations and returns the
// context's error) and a worker count for the coarse surface scan
// (<= 0 means all cores; results are identical for every count).
func OptimizeDelayedCtx(ctx context.Context, m Model, workers int) (DelayedParams, Evaluation, error) {
	ub := m.UpperBound()
	k := kernelsOf(m)
	obj := func(t0, ratio float64) float64 {
		if ctx.Err() != nil {
			return math.Inf(1)
		}
		return EJDelayed(m, DelayedParams{T0: t0, TInf: ratio * t0})
	}
	// Row-sweep mode: one kernel sweep per grid row (fixed t0).
	frow := func(t0 float64, ratios []float64) []float64 {
		return ejDelayedRatioGrid(ctx, k, ratios, []float64{t0}, 1)
	}
	r := optimize.MinimizeRobust2D(obj, frow, ub*1e-3, ub/2, 1.0005, 2.0, workers)
	if err := ctx.Err(); err != nil {
		return DelayedParams{}, Evaluation{}, err
	}
	p := DelayedParams{T0: r.X, TInf: r.X * r.Y}
	ev, err := DelayedEvaluate(m, p)
	if err != nil {
		// The optimizer landed on an infeasible edge; fall back to a
		// safely interior point.
		p = DelayedParams{T0: ub / 20, TInf: ub / 20 * 1.4}
		ev, _ = DelayedEvaluate(m, p)
	}
	return p, ev, nil
}

// OptimizeDelayedRatio minimizes EJ over t0 with t∞ = ratio·t0 fixed
// (the paper's §6.2 per-ratio optimization, Table 3), by the search
// OptimizeDelayedRatiosCtx describes. Out-of-range ratios panic; a NaN
// ratio yields a +Inf evaluation so it can never win an EJ comparison.
func OptimizeDelayedRatio(m Model, ratio float64) (DelayedParams, Evaluation) {
	if ratio <= 1 || ratio > 2 {
		panic(fmt.Sprintf("core: delayed ratio must be in (1, 2], got %v", ratio))
	}
	ps, evs, err := OptimizeDelayedRatiosCtx(context.Background(), m, []float64{ratio}, 1)
	if err != nil {
		// Only reachable for a NaN ratio, which slips the panic guard
		// above; keep the pre-Ctx convention of an infeasible result.
		return DelayedParams{}, Evaluation{EJ: math.Inf(1), Sigma: math.Inf(1), Parallel: 1}
	}
	return ps[0], evs[0]
}

// Shape of the per-ratio t0 search: scans of ratioScanN+1 points over
// [ub·1e-3, ub/2], then a Brent polish to ratioPolishTol.
const (
	ratioScanN     = 400
	ratioPolishTol = 1e-10
)

// OptimizeDelayedRatiosCtx minimizes EJ over t0 with t∞ = ratio·t0
// fixed, for every ratio at once, and returns the optima and their
// evaluations in input order. Each ratio's search has three steps:
//
//   - Round 0, shared: a 401-point t0 grid on [ub·1e-3, ub/2], the
//     same for every ratio, so each t0 answers all ratios from one
//     merged cross-term walk.
//   - Round 1, per ratio: 401 points in [x-h, x+h] around the round-0
//     incumbent x (h its grid step), ties going to the smaller t0.
//   - A Brent polish (tolerance 1e-10) inside [x-h₁, x+h₁] around the
//     round-1 incumbent, kept only where it lowers EJ.
//
// Round 1 stays a grid: the step-ECDF objective has many kinks inside a
// round-0 bracket, and a Brent polish started from there lands in a
// worse kink on most paper cells. Round 0's t0 rows, and each ratio's
// round 1, polish and final DelayedEvaluate, fan across up to
// `workers` goroutines (<= 0 means all cores); every value is
// pointwise and the ratios are independent, so results are identical
// for every count and equal per-ratio calls. An out-of-range ratio is
// an error, and a done ctx aborts with the context's error.
func OptimizeDelayedRatiosCtx(ctx context.Context, m Model, ratios []float64, workers int) ([]DelayedParams, []Evaluation, error) {
	for _, r := range ratios {
		if !(r > 1 && r <= 2) {
			return nil, nil, fmt.Errorf("core: delayed ratio must be in (1, 2], got %v", r)
		}
	}
	ub := m.UpperBound()
	k := kernelsOf(m)
	a, b := ub*1e-3, ub/2
	h0 := (b - a) / ratioScanN
	t0s := make([]float64, ratioScanN+1)
	for i := range t0s {
		t0s[i] = a + float64(i)*h0
	}
	vals := ejDelayedRatioGrid(ctx, k, ratios, t0s, workers)
	ps := make([]DelayedParams, len(ratios))
	evs := make([]Evaluation, len(ratios))
	optimize.ParallelFor(len(ratios), optimize.Workers(workers), func(j int) {
		ratio := ratios[j]
		x, f := a, math.Inf(1)
		scan := func(lo, h float64, vs []float64) {
			for i, v := range vs {
				if xi := lo + float64(i)*h; v < f || (v == f && xi < x) {
					x, f = xi, v
				}
			}
		}
		scan(a, h0, vals[j*len(t0s):(j+1)*len(t0s)])
		if lo, hi := math.Max(a, x-h0), math.Min(b, x+h0); lo < hi {
			h1 := (hi - lo) / ratioScanN
			buf := make([]float64, 3*(ratioScanN+1)) // t0 grid, w grid, EJ
			qs, out := buf[:2*(ratioScanN+1)], buf[2*(ratioScanN+1):]
			for i := range out {
				qs[i] = lo + float64(i)*h1
			}
			if ctx.Err() != nil {
				return
			}
			ejDelayedRatioBatch(k, ratio, qs, out)
			scan(lo, h1, out)
			if lo, hi := math.Max(a, x-h1), math.Min(b, x+h1); lo < hi && !math.IsInf(f, 1) {
				r := optimize.Brent(func(t0 float64) float64 {
					if ctx.Err() != nil {
						return math.Inf(1)
					}
					return ejDelayedAt(k, ratio, t0)
				}, lo, hi, ratioPolishTol)
				if r.F < f {
					x, f = r.X, r.F
				}
			}
		}
		ps[j] = DelayedParams{T0: x, TInf: ratio * x}
		if ctx.Err() != nil {
			return
		}
		ev, err := DelayedEvaluate(m, ps[j])
		if err != nil {
			ev = Evaluation{EJ: math.Inf(1), Sigma: math.Inf(1), Parallel: 1}
		}
		evs[j] = ev
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return ps, evs, nil
}
