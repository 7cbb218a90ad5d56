package core

import (
	"context"
	"fmt"
	"math"

	"gridstrat/internal/optimize"
)

// Evaluation is the outcome of evaluating a strategy at fixed
// parameters: the expected total latency including resubmissions, its
// standard deviation, and the average number of parallel job copies
// the strategy keeps in the system.
type Evaluation struct {
	EJ       float64 // expectation of total latency J
	Sigma    float64 // standard deviation of J
	Parallel float64 // average number of parallel copies (N‖; b for multiple)
}

// EJSingle evaluates Eq. 1 of the paper: the expected total latency of
// the single-resubmission strategy with timeout tInf,
//
//	EJ(t∞) = (1/F̃R(t∞)) · ∫₀^t∞ (1 - F̃R(u)) du.
//
// It returns +Inf when F̃R(t∞) = 0 (the timeout gives no chance of
// success, so the expectation diverges).
func EJSingle(m Model, tInf float64) float64 {
	return EJMultiple(m, 1, tInf)
}

// SigmaSingle evaluates Eq. 2: the standard deviation of the total
// latency under single resubmission with timeout tInf.
func SigmaSingle(m Model, tInf float64) float64 {
	return SigmaMultiple(m, 1, tInf)
}

// OptimizeSingle minimizes EJ over the timeout t∞ and returns the
// optimum with the matching σJ. The scan covers (0, m.UpperBound()]
// with a multimodality-robust grid search refined to sub-second
// precision. A done ctx aborts the scan between objective evaluations
// and its error is returned; the grid rounds fan across up to
// `workers` goroutines (<= 0 means all cores; results are identical
// for every count).
func OptimizeSingle(ctx context.Context, m Model, workers int) (float64, Evaluation, error) {
	return OptimizeMultiple(ctx, m, 1, workers)
}

// timeoutLowerBracket returns a small positive lower bound for timeout
// searches: below the first latency quantile EJ is guaranteed +Inf.
func timeoutLowerBracket(m Model) float64 {
	lo := m.UpperBound() * 1e-4
	if lo <= 0 {
		lo = 1e-6
	}
	return lo
}

// optimizeTimeout scans EJ(t∞) for a fixed evaluator. Shared by the
// single and multiple strategies. Each refinement round's ascending
// grid is answered by one evalBatch call per worker chunk (up to
// `workers` goroutines), so evalBatch must be pointwise and safe for
// concurrent calls. When ctx is cancelled the remaining chunks
// short-circuit to +Inf and the context error is returned.
func optimizeTimeout(ctx context.Context, m Model, evalBatch func(ts []float64) []float64, workers int) (optimize.Result1D, error) {
	lo := timeoutLowerBracket(m)
	hi := m.UpperBound()
	if !(lo < hi) {
		return optimize.Result1D{}, fmt.Errorf("core: degenerate timeout bracket [%v, %v]", lo, hi)
	}
	// EJ(t∞) profiles are piecewise smooth but can be multimodal in
	// b (Table 2 optima jump between basins), so grid-scan first.
	fb := func(ts []float64) []float64 {
		if ctx.Err() != nil {
			return infSlice(len(ts))
		}
		vs := evalBatch(ts)
		for i, v := range vs {
			if math.IsNaN(v) {
				vs[i] = math.Inf(1)
			}
		}
		return vs
	}
	r := optimize.GridScan1D(fb, lo, hi, 400, 4, workers)
	if err := ctx.Err(); err != nil {
		return optimize.Result1D{}, err
	}
	return r, nil
}

// infSlice returns a +Inf-filled slice (the cancelled-scan sentinel).
func infSlice(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Inf(1)
	}
	return out
}
