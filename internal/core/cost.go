package core

import (
	"context"
	"fmt"
	"math"

	"gridstrat/internal/optimize"
)

// CostContext anchors the paper's §7 cost criterion: every strategy is
// charged Δcost = N‖ · EJ(strategy) / EJ(single at its optimum), so
// the single-resubmission strategy costs exactly 1 and anything below
// 1 loads the grid *less* than plain resubmission while finishing
// sooner.
type CostContext struct {
	Model      Model
	RefTimeout float64 // optimal single-resubmission t∞
	RefEJ      float64 // EJ of single resubmission at RefTimeout
}

// NewCostContext optimizes the single-resubmission baseline once and
// fixes it as the cost reference. A done ctx aborts the baseline
// optimization with its error; its grid scan fans across up to
// `workers` goroutines (<= 0 means all cores; results are identical
// for every count).
func NewCostContext(ctx context.Context, m Model, workers int) (*CostContext, error) {
	tInf, ev, err := OptimizeSingle(ctx, m, workers)
	if err != nil {
		return nil, err
	}
	if math.IsInf(ev.EJ, 1) || ev.EJ <= 0 {
		return nil, fmt.Errorf("core: cannot establish cost reference (EJ=%v)", ev.EJ)
	}
	return &CostContext{Model: m, RefTimeout: tInf, RefEJ: ev.EJ}, nil
}

// Delta returns Eq. 6 for an arbitrary (EJ, N‖) pair.
func (c *CostContext) Delta(ej, nParallel float64) float64 {
	return nParallel * ej / c.RefEJ
}

// DeltaMultiple optimizes the multiple-submission strategy for
// collection size b (see OptimizeMultiple for ctx, workers and the
// errors) and returns its optimal timeout, evaluation and
// Δcost = b·EJ(b)/EJ(1).
func (c *CostContext) DeltaMultiple(ctx context.Context, b int, workers int) (tInf float64, ev Evaluation, delta float64, err error) {
	tInf, ev, err = OptimizeMultiple(ctx, c.Model, b, workers)
	if err != nil {
		return 0, Evaluation{}, 0, err
	}
	return tInf, ev, c.Delta(ev.EJ, float64(b)), nil
}

// DeltaDelayed evaluates the delayed strategy at p and its Δcost =
// E[N‖]·EJ(p)/EJ(1).
func (c *CostContext) DeltaDelayed(p DelayedParams) (Evaluation, float64, error) {
	ev, err := DelayedEvaluate(c.Model, p)
	if err != nil {
		return Evaluation{}, 0, err
	}
	return ev, c.Delta(ev.EJ, ev.Parallel), nil
}

// CostResult is the outcome of a Δcost minimization.
type CostResult struct {
	Params DelayedParams
	Eval   Evaluation
	Delta  float64
}

// OptimizeDelayedCost minimizes Δcost over (t0, t∞) with
// t0 < t∞ <= 2·t0, then rounds to integer seconds and polishes on the
// integer lattice — the paper restricts Table 5 to integer parameter
// values because sub-second resubmission control is not realistic.
// A done ctx aborts both the surface search and the integer polish
// with its error; the coarse surface scan fans across up to `workers`
// goroutines (<= 0 means all cores; results are identical for every
// count).
func (c *CostContext) OptimizeDelayedCost(ctx context.Context, workers int) (CostResult, error) {
	ub := c.Model.UpperBound()
	k := kernelsOf(c.Model)
	obj := func(t0, ratio float64) float64 {
		if ctx.Err() != nil {
			return math.Inf(1)
		}
		p := DelayedParams{T0: t0, TInf: ratio * t0}
		if p.Validate() != nil {
			return math.Inf(1)
		}
		ej, _ := delayedMoments(c.Model, p)
		if math.IsInf(ej, 1) {
			return math.Inf(1)
		}
		return c.Delta(ej, nParallelExpectedCells(c.Model, p, costScanCells))
	}
	// Row-sweep mode: the row's EJ values come from one kernel sweep;
	// the N‖ expectation is one survival-series sum per grid cell (not
	// an ECDF integral), skipped where the sweep already proved the
	// cell infeasible.
	frow := func(t0 float64, ratios []float64) []float64 {
		ejs := ejDelayedRatioGrid(ctx, k, ratios, []float64{t0}, 1, false)
		for i, ratio := range ratios {
			if math.IsInf(ejs[i], 1) {
				continue
			}
			p := DelayedParams{T0: t0, TInf: ratio * t0}
			ejs[i] = c.Delta(ejs[i], nParallelExpectedCells(c.Model, p, costScanCells))
		}
		return ejs
	}
	r := optimize.MinimizeRobust2D(obj, frow, ub*1e-3, ub/2, 1.0005, 2.0, workers)
	if err := ctx.Err(); err != nil {
		return CostResult{}, err
	}

	// Integer polish around the continuous optimum.
	best := CostResult{Delta: math.Inf(1)}
	t0c := math.Round(r.X)
	tInfc := math.Round(r.X * r.Y)
	for dt0 := -3.0; dt0 <= 3; dt0++ {
		for dti := -3.0; dti <= 3; dti++ {
			if err := ctx.Err(); err != nil {
				return CostResult{}, err
			}
			p := DelayedParams{T0: t0c + dt0, TInf: tInfc + dti}
			if p.Validate() != nil {
				continue
			}
			ev, delta, err := c.DeltaDelayed(p)
			if err != nil {
				continue
			}
			if delta < best.Delta {
				best = CostResult{Params: p, Eval: ev, Delta: delta}
			}
		}
	}
	if math.IsInf(best.Delta, 1) {
		// Integer lattice around the optimum was infeasible (tiny t0);
		// fall back to the continuous point.
		p := DelayedParams{T0: r.X, TInf: r.X * r.Y}
		ev, delta, err := c.DeltaDelayed(p)
		if err == nil {
			best = CostResult{Params: p, Eval: ev, Delta: delta}
		}
	}
	return best, nil
}

// costScanCells trades N‖ precision for speed inside optimization
// loops; final evaluations always use the full resolution.
const costScanCells = 96

// StabilityResult reports the paper's Table 5 robustness probe: the
// worst Δcost when the optimal integer (t0, t∞) is perturbed by up to
// ±radius seconds.
type StabilityResult struct {
	MaxDelta    float64
	MaxRelDiff  float64 // (MaxDelta - Delta*) / Delta*
	Evaluations int
}

// CostStability evaluates Δcost on every feasible integer perturbation
// of p within the given radius and reports the maximum. Invalid inputs
// (negative radius, infeasible p) yield a NaN-filled result.
func (c *CostContext) CostStability(p DelayedParams, radius int) StabilityResult {
	if radius < 0 {
		return StabilityResult{MaxDelta: math.NaN(), MaxRelDiff: math.NaN()}
	}
	_, refDelta, err := c.DeltaDelayed(p)
	if err != nil {
		return StabilityResult{MaxDelta: math.NaN(), MaxRelDiff: math.NaN()}
	}
	res := StabilityResult{MaxDelta: refDelta}
	for dt0 := -radius; dt0 <= radius; dt0++ {
		for dti := -radius; dti <= radius; dti++ {
			q := DelayedParams{T0: p.T0 + float64(dt0), TInf: p.TInf + float64(dti)}
			if q.Validate() != nil {
				continue
			}
			_, delta, err := c.DeltaDelayed(q)
			if err != nil {
				continue
			}
			res.Evaluations++
			if delta > res.MaxDelta {
				res.MaxDelta = delta
			}
		}
	}
	if refDelta > 0 {
		res.MaxRelDiff = (res.MaxDelta - refDelta) / refDelta
	}
	return res
}
