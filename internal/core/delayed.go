package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

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
// objective of the per-ratio Brent polish and of round 1's exact
// confirmation. Values are identical to EJDelayed's.
func ejDelayedAt(k kernels, ratio, t0 float64) float64 {
	q, ok := delayedCellQ(k, t0, ratio)
	if !ok {
		return math.Inf(1)
	}
	w := ratio*t0 - t0
	return ejDelayedFrom(k.IntOneMinusFPow(t0, 1), k.IntOneMinusFPow(w, 1), k.IntProdOneMinusF(w, t0), q)
}

// ratioConfirmTol is round 1's confirmation margin, relative to each
// point's error scale (see ejDelayedRatioRound). It must be at least
// the kernel's stats.ProdRatioGridTol for the confirmation to be exact;
// it is 1000 times that.
const ratioConfirmTol = 1e-9

// ejDelayedRatioRound evaluates EJDelayed along one ratio's refinement
// grid t0 = lo + i·h (t∞ = ratio·t0), writing out[i]: exactly — the
// scalar EJDelayed value bit for bit — at every point that can be the
// grid's minimum, and +Inf at every other point.
//
// One batch call answers both pow integrals of every point, and
// prodRatioGrid the cross terms. Walked cross terms make every value
// exact. The one-pass kernel's are within ProdRatioGridTol·(C + w) of
// the walks', so a point's EJ lies within σ_i = ratioConfirmTol·
// (C_i + w_i)/(1 - q_i) of its fast value; every point whose interval
// reaches below the lowest upper end min_j(EJ_j + σ_j) is re-evaluated
// by ejDelayedAt. Every exact minimizer is among them, and every other
// point's exact EJ is above the confirmed minimum, so a scan of out
// picks the point a scan of all-exact values would.
func ejDelayedRatioRound(k kernels, ratio, lo, h float64, out []float64) {
	n := len(out)
	buf := make([]float64, 3*n)
	qs, cs := buf[:2*n], buf[2*n:] // qs: t0 grid, then w grid
	slack := cs                    // σ_i replaces C_i once EJ_i is known
	for i := 0; i < n; i++ {
		t0 := lo + float64(i)*h
		qs[i], qs[n+i] = t0, ratio*t0-t0
	}
	ints := k.IntOneMinusFPowBatch(qs, 1)
	exact := prodRatioGrid(k, ratio, lo, h, cs)
	top := math.Inf(1)
	for i := range out {
		q, ok := delayedCellQ(k, qs[i], ratio)
		if !ok {
			out[i], slack[i] = math.Inf(1), 0
			continue
		}
		out[i] = ejDelayedFrom(ints[i], ints[n+i], cs[i], q)
		slack[i] = ratioConfirmTol * (cs[i] + qs[n+i]) / (1 - q)
		top = math.Min(top, out[i]+slack[i])
	}
	if exact {
		return
	}
	for i, v := range out {
		if v-slack[i] <= top {
			out[i] = ejDelayedAt(k, ratio, qs[i])
		} else {
			out[i] = math.Inf(1)
		}
	}
}

// roundingSlack widens round0Bounds' interval by this fraction of
// EJ_hi on top of the confirmation margin, for the final roundings of
// the EJ formula; it matters only where w is within ~1e-6 of zero
// relative to t0, and moves no bound by more than 1e-13 relative.
const roundingSlack = 1e-13

// round0Bounds brackets the EJ of one cell (t0, t∞ = t0 + w) without
// walking its cross term C = ∫₀^w S(u)·S(u+t0) du, S = 1-F̃, from the
// b = 1 pow integrals ia = I(t0), iw = I(w), it = I(t∞) and the
// survivals s0 = S(t0), q = S(t∞). S is nonincreasing, so both factors
// of C are, and Chebyshev's integral inequality gives
// C ≥ I(w)·(I(t∞)-I(t0))/w; S(u+t0) ∈ [q, S(t0)] on [0, w] gives
// C ≥ q·I(w) and C ≤ S(t0)·I(w), and S(u) ≤ 1 gives C ≤ I(t∞)-I(t0).
// EJ rises with C, so the walked EJ lies in [lo, hi]: the formula's
// values at the two bounds, widened each way by σ =
// ratioConfirmTol·(C_hi + w)/(1-q), round 1's margin, plus
// roundingSlack·EJ_hi.
func round0Bounds(ia, iw, it, s0, q, w float64) (lo, hi float64) {
	shifted := it - ia // ∫₀^w S(u+t0) du
	cLo := math.Max(iw*shifted/w, q*iw)
	cHi := math.Min(shifted, s0*iw)
	hi = ejDelayedFrom(ia, iw, cHi, q)
	sigma := ratioConfirmTol*(cHi+w)/(1-q) + roundingSlack*hi
	return ejDelayedFrom(ia, iw, cLo, q) - sigma, hi + sigma
}

// round0Rows returns the rows of the grid t0s × ratios that can hold
// some ratio's minimum and writes +Inf into every cell of the others.
// ints holds the batch pow integrals of t0s, of each ratio's w column
// and of each ratio's t∞ column. Each valid cell's EJ is bracketed by
// round0Bounds; a row is kept where some ratio's cell has a lower end
// at or below the lowest upper end of that ratio, the rule round 1's
// confirmation uses. The rows' cells are left for the caller to walk;
// the bounds pass fans across `chunks` goroutines.
func round0Rows(ctx context.Context, k kernels, ratios, t0s, ints, vals []float64, chunks int) []int {
	n, nr := len(t0s), len(ratios)
	// vals holds each valid cell's lower end (+Inf where invalid),
	// tops each chunk's lowest upper end per ratio.
	tops := make([]float64, chunks*nr)
	per := (n + chunks - 1) / chunks
	optimize.ParallelFor(chunks, chunks, func(c int) {
		top := tops[c*nr : (c+1)*nr]
		for j := range top {
			top[j] = math.Inf(1)
		}
		for i := c * per; i < n && i < (c+1)*per && ctx.Err() == nil; i++ {
			t0 := t0s[i]
			s0 := 1 - k.Ftilde(t0)
			for j, r := range ratios {
				q, ok := delayedCellQ(k, t0, r)
				if !ok {
					vals[j*n+i] = math.Inf(1)
					continue
				}
				lo, hi := round0Bounds(ints[i], ints[(j+1)*n+i], ints[(nr+1+j)*n+i], s0, q, r*t0-t0)
				vals[j*n+i] = lo
				top[j] = math.Min(top[j], hi)
			}
		}
	})
	for c := 1; c < chunks; c++ {
		for j := range nr {
			tops[j] = math.Min(tops[j], tops[c*nr+j])
		}
	}
	rows := make([]int, 0, n)
	for i := range t0s {
		walk := false
		for j := 0; j < nr && !walk; j++ {
			// An invalid cell is no candidate, even where its ratio has
			// no valid cell (tops[j] = +Inf).
			walk = vals[j*n+i] <= tops[j] && !math.IsInf(vals[j*n+i], 1)
		}
		if walk {
			rows = append(rows, i)
			continue
		}
		for j := range nr {
			vals[j*n+i] = math.Inf(1)
		}
	}
	return rows
}

// ejDelayedRatioGrid evaluates EJDelayed on the grid t0s × ratios,
// returning vals[j·len(t0s)+i] at (t0s[i], ratios[j]): the coarse
// round every ratio's t0 search shares (argmin set), and (with one t0)
// a row of the (t0, ratio) surface scans. A t0 row shares the cross
// term's shift = t0, so a model with its own kernels answers the plain
// cross terms of every ratio from one merged walk, after one batch
// call has answered the pow integrals of t0 and of every ratio's w
// column. A model scanned pointwise asks its scalar integrals row by
// row and walks each valid cell's plain term alone — its merged "walk"
// would run the u-weighted half as a second full walk per cell — and
// so does a row whose w values float rounding left non-monotone.
//
// With argmin set, the caller needs only each ratio's minimizing
// cells. For a model with its own kernels the batch call then also
// answers every ratio's t∞ column, and only the rows round0Rows keeps
// are walked; every other cell reads +Inf. Each exact minimizer lies
// in a walked row and every skipped cell's exact EJ is above its
// ratio's minimum, so a scan of vals picks the cell a scan of the full
// grid picks. Rows fan across up to `workers` goroutines in contiguous
// chunks; rows reached after ctx is done read +Inf. Every value that
// is not +Inf is identical to a per-cell EJDelayed call.
func ejDelayedRatioGrid(ctx context.Context, k kernels, ratios, t0s []float64, workers int, argmin bool) []float64 {
	n, nr := len(t0s), len(ratios)
	_, scalar := k.(pointwise)
	prune := argmin && !scalar
	var vals, ints []float64
	if scalar {
		vals = make([]float64, nr*n)
	} else {
		// qs: t0s, each ratio's w column, then (prune) each ratio's t∞
		// column. Once the batch call has answered it, its head holds
		// vals: rows recompute w from the same expression.
		cols := nr + 1
		if prune {
			cols += nr
		}
		qs := make([]float64, cols*n)
		copy(qs, t0s)
		for j, r := range ratios {
			for i, t0 := range t0s {
				// Same expressions as delayedMoments: TInf = ratio·t0,
				// w = TInf - T0.
				qs[(j+1)*n+i] = r*t0 - t0
				if prune {
					qs[(nr+1+j)*n+i] = r * t0
				}
			}
		}
		ints = k.IntOneMinusFPowBatch(qs, 1)
		vals = qs[:nr*n]
	}
	chunks := max(1, min(optimize.Workers(workers), n))
	nrows, rows := n, []int(nil) // the rows to walk: all n, or rows
	if prune {
		rows = round0Rows(ctx, k, ratios, t0s, ints, vals, chunks)
		nrows = len(rows)
	}
	if nrows == 0 {
		return vals
	}
	chunks = min(chunks, nrows)
	per := (nrows + chunks - 1) / chunks
	optimize.ParallelFor(chunks, chunks, func(c int) {
		ws := make([]float64, nr) // the w values of one t0 row
		for pos := c * per; pos < nrows && pos < (c+1)*per; pos++ {
			i := pos
			if rows != nil {
				i = rows[pos]
			}
			if ctx.Err() != nil {
				for j := range ratios {
					vals[j*n+i] = math.Inf(1)
				}
				continue
			}
			t0 := t0s[i]
			for j, r := range ratios {
				ws[j] = r*t0 - t0
			}
			var cs []float64
			if !scalar && sort.Float64sAreSorted(ws) {
				cs, _ = k.IntProdBothBatch(ws, t0)
			}
			var ia float64
			if ints != nil {
				ia = ints[i]
			} else {
				ia = k.IntOneMinusFPow(t0, 1)
			}
			for j, r := range ratios {
				q, ok := delayedCellQ(k, t0, r)
				if !ok {
					vals[j*n+i] = math.Inf(1)
					continue
				}
				var cross, iw float64
				if cs != nil {
					cross = cs[j]
				} else {
					cross = k.IntProdOneMinusF(ws[j], t0)
				}
				if ints != nil {
					iw = ints[(j+1)*n+i]
				} else {
					iw = k.IntOneMinusFPow(ws[j], 1)
				}
				vals[j*n+i] = ejDelayedFrom(ia, iw, cross, q)
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
	ev, err := delayedEJSigma(m, p)
	if err != nil {
		return math.Inf(1)
	}
	return ev.Sigma
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
// used by NParallelExpected; the cell *masses* are exact (survival
// differences), only the variation of N‖ within a cell is
// approximated.
const delayedExpectCells = 1024

// NParallelExpected returns E[N‖(J)]: the average number of parallel
// copies the delayed strategy keeps in the system, to be compared with
// b for the multiple-submission strategy.
func NParallelExpected(m Model, p DelayedParams) float64 {
	return nParallelExpectedCells(m, p, delayedExpectCells)
}

// nParallelExpectedCells is NParallelExpected with `cells` cells per
// T0-period, by exact-mass Stieltjes summation over the survival
// function: each cell of width h = T0/cells carries probability
// G(a)-G(b) and is weighted by N‖ at its midpoint. The series over
// periods stops when the residual tail mass drops below 1e-12.
//
// Every period puts its cell edges at the same offsets u = i·h, and
// within period j >= 1 the survival is q^(j-1)·(1-F̃(u+T0))·(1-F̃(u))
// while both copies race (u < t∞-t0) and q^j·(1-F̃(u)) after, so the
// two factors are tabulated once per call and each period costs two
// powers of q plus O(cells) table lookups. The edges u and then u+T0
// form one ascending run, so a model with the ascending extension
// builds both tables in one galloping sweep, O(cells·log(n/cells)) for
// n support points; any other model makes at most 2·cells+1 Ftilde
// calls, q's included, however many periods the series runs. The
// tables live in a pooled scratch buffer, reused across calls. Every
// cell midpoint l of period j >= 1 has floor(l/T0) = j — its margin
// h/2 dwarfs the ~j·ε·T0 rounding of l — so N‖'s period count, its
// I0/I1 split point and the heads of both of NParallelGivenLatency's
// formulas are fixed per period; the cell loop finishes the formulas
// in their association order, and period 0 weighs every cell by 1.
func nParallelExpectedCells(m Model, p DelayedParams, cells int) float64 {
	if err := p.Validate(); err != nil {
		return math.NaN()
	}
	q := 1 - m.Ftilde(p.TInf)
	if q >= 1 {
		return math.NaN()
	}
	t0, tInf := p.T0, p.TInf
	h := t0 / float64(cells)
	w := tInf - t0
	racing := 0 // cells 1..racing have i·h < w: both copies race
	for racing < cells && float64(racing+1)*h < w {
		racing++
	}
	buf := survivalScratch.Get().(*[]float64)
	defer survivalScratch.Put(buf)
	if cap(*buf) < cells+racing {
		*buf = make([]float64, cells+racing)
	}
	tables := (*buf)[:cells+racing]
	one := tables[:cells]  // one[i-1] = 1-F̃(i·h)
	both := tables[cells:] // both[i-1] = 1-F̃(i·h+T0), for i <= racing
	for i := 1; i <= cells; i++ {
		one[i-1] = float64(i) * h
	}
	for i := 1; i <= racing; i++ {
		both[i-1] = float64(i)*h + t0
	}
	ftildeAscending(m, tables)
	for i, f := range tables {
		tables[i] = 1 - f
	}
	sum := 0.0
	prevG := 1.0
	for j := 0; ; j++ {
		base := float64(j) * t0
		var qPrev, qCur, fn, split, head0, head1 float64
		if j > 0 {
			qPrev, qCur = powFloorExp(q, float64(j-1)), powFloorExp(q, float64(j))
			fn = float64(j)
			split = (fn-1)*t0 + tInf // I0 below, I1 from here
			head0 = t0 + (fn-1)*tInf
			head1 = head0 + 2*(tInf-t0)
		}
		for i := 1; i <= cells; i++ {
			var gt float64
			switch {
			case j == 0:
				gt = one[i-1]
			case i <= racing:
				gt = qPrev * both[i-1] * one[i-1]
			default:
				gt = qCur * one[i-1]
			}
			t := base + float64(i)*h
			if mass := prevG - gt; mass > 0 {
				switch l := t - h/2; {
				case j == 0:
					sum += mass
				case l < split:
					sum += mass * ((head0 + 2*(l-fn*t0)) / l)
				default:
					sum += mass * ((head1 + (l - (fn-1)*t0 - tInf)) / l)
				}
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

// survivalScratch pools nParallelExpectedCells' table buffers (a
// *[]float64 each), so every worker reuses one instead of allocating
// its tables per call.
var survivalScratch = sync.Pool{New: func() any { return new([]float64) }}

// DelayedEvaluate bundles the exact EJ, σJ and E[N‖] of the delayed
// strategy at the given parameters.
func DelayedEvaluate(m Model, p DelayedParams) (Evaluation, error) {
	ev, err := delayedEJSigma(m, p)
	if err != nil {
		return Evaluation{}, err
	}
	ev.Parallel = NParallelExpected(m, p)
	return ev, nil
}

// delayedEJSigma is DelayedEvaluate without E[N‖]: the evaluation's
// EJ and σJ, Parallel left zero.
func delayedEJSigma(m Model, p DelayedParams) (Evaluation, error) {
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
	return Evaluation{EJ: ej, Sigma: math.Sqrt(v)}, nil
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
// A done ctx short-circuits the remaining surface evaluations and
// returns its error; the coarse surface scan fans across up to
// `workers` goroutines (<= 0 means all cores; results are identical
// for every count).
func OptimizeDelayed(ctx context.Context, m Model, workers int) (DelayedParams, Evaluation, error) {
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
		return ejDelayedRatioGrid(ctx, k, ratios, []float64{t0}, 1, false)
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

// Shape of the per-ratio t0 search: scans of ratioScanN+1 points over
// [ub·1e-3, ub/2], then a Brent polish to ratioPolishTol.
const (
	ratioScanN     = 400
	ratioPolishTol = 1e-10
)

// OptimizeDelayedRatios minimizes EJ over t0 with t∞ = ratio·t0
// fixed (the paper's §6.2 per-ratio optimization, Table 3), for every
// ratio at once, and returns the optima and their evaluations in input
// order; a single-ratio caller passes a one-element slice. Each
// ratio's search has three steps:
//
//   - Round 0, shared: a 401-point t0 grid on [ub·1e-3, ub/2], the
//     same for every ratio. Only each ratio's incumbent is used, so a
//     model with its own kernels first brackets every cell's EJ from
//     O(1) pow-integral lookups (round0Bounds) and walks only the t0
//     rows that can hold some ratio's incumbent, each answering all
//     ratios from one merged cross-term walk; the other cells read
//     +Inf. The incumbents are the full grid's. Any other model walks
//     every row.
//   - Round 1, per ratio: 401 points in [x-h, x+h] around the round-0
//     incumbent x (h its grid step), ties going to the smaller t0. A
//     model with the one-pass ratio-grid kernel (RatioGridIntegrals)
//     answers the 401 cross terms in one pass, and every point that
//     can win is then re-evaluated exactly (ejDelayedRatioRound); any
//     other model walks each point. Either way the round picks the
//     point an all-walk round picks.
//   - A Brent polish (tolerance 1e-10) inside [x-h₁, x+h₁] around the
//     round-1 incumbent, kept only where it lowers EJ.
//
// Round 1 stays a grid: the step-ECDF objective has many kinks inside a
// round-0 bracket, and a Brent polish started from there lands in a
// worse kink on most paper cells. Round 0's t0 rows, and each ratio's
// round 1, polish and final EJ and σ, fan across up to
// `workers` goroutines (<= 0 means all cores); every value is
// pointwise and the ratios are independent, so results are identical
// for every count, equal per-ratio calls, and do not depend on whether
// the model has the ratio-grid kernel. An out-of-range ratio is
// an error, and a done ctx aborts with the context's error.
//
// The evaluations carry EJ and σJ (+Inf both where the optimum
// diverges); their Parallel is left zero, because E[N‖] is no part of
// the search and costs more than the rest of the final evaluation.
// DelayedParallels computes it at the returned optima, for callers
// that read it.
func OptimizeDelayedRatios(ctx context.Context, m Model, ratios []float64, workers int) ([]DelayedParams, []Evaluation, error) {
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
	vals := ejDelayedRatioGrid(ctx, k, ratios, t0s, workers, true)
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
			if ctx.Err() != nil {
				return
			}
			out := make([]float64, ratioScanN+1)
			ejDelayedRatioRound(k, ratio, lo, h1, out)
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
		ev, err := delayedEJSigma(m, ps[j])
		if err != nil {
			ev = Evaluation{EJ: math.Inf(1), Sigma: math.Inf(1)}
		}
		evs[j] = ev
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return ps, evs, nil
}

// DelayedParallels returns E[N‖] (NParallelExpected) at every ps[j],
// in order, and 1 where the parameters are invalid or the strategy
// diverges (no success mass before t∞): the N‖ reported with an
// optimum whose EJ is +Inf. The points fan across up to `workers`
// goroutines (<= 0 means all cores; values are pointwise, so
// identical for every count); a done ctx aborts with its error.
func DelayedParallels(ctx context.Context, m Model, ps []DelayedParams, workers int) ([]float64, error) {
	out := make([]float64, len(ps))
	optimize.ParallelFor(len(ps), optimize.Workers(workers), func(j int) {
		if ctx.Err() != nil {
			return
		}
		if out[j] = NParallelExpected(m, ps[j]); math.IsNaN(out[j]) {
			out[j] = 1
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
