package core

import (
	"context"
	"fmt"
	"math"

	"gridstrat/internal/stats"
)

// EJMultiple evaluates Eq. 3: the expected total latency of the
// multiple-submission strategy with a collection of b copies and
// timeout tInf,
//
//	EJ(t∞) = ∫₀^t∞ (1-F̃R(u))^b du ÷ (1 - (1-F̃R(t∞))^b).
//
// The whole collection is resubmitted at t∞ when no copy has started,
// so the denominator is the per-round success probability. b = 1
// recovers the single-resubmission Eq. 1. Infeasible parameters
// (b < 1 or t∞ <= 0) yield +Inf, matching the optimizer convention.
func EJMultiple(m Model, b int, tInf float64) float64 {
	if b < 1 || tInf <= 0 {
		return math.Inf(1)
	}
	success := 1 - stats.PowInt(1-m.Ftilde(tInf), b)
	if success <= 0 {
		return math.Inf(1)
	}
	return m.IntOneMinusFPow(tInf, b) / success
}

// ejMultipleBatch evaluates EJMultiple over an ascending timeout grid
// through the batch kernels: one O(n+G) integral sweep instead of G
// O(n) walks for a kernel-backed model. Values are identical to
// per-point EJMultiple calls.
func ejMultipleBatch(k kernels, b int, ts []float64) []float64 {
	ints := k.IntOneMinusFPowBatch(ts, b)
	out := make([]float64, len(ts))
	for i, t := range ts {
		if t <= 0 {
			out[i] = math.Inf(1)
			continue
		}
		success := 1 - stats.PowInt(1-k.Ftilde(t), b)
		if success <= 0 {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = ints[i] / success
	}
	return out
}

// SigmaMultiple evaluates Eq. 4: the standard deviation of the total
// latency of the multiple-submission strategy. Infeasible parameters
// yield +Inf.
func SigmaMultiple(m Model, b int, tInf float64) float64 {
	if b < 1 || tInf <= 0 {
		return math.Inf(1)
	}
	qb := stats.PowInt(1-m.Ftilde(tInf), b)
	success := 1 - qb
	if success <= 0 {
		return math.Inf(1)
	}
	i0 := m.IntOneMinusFPow(tInf, b)  // ∫ (1-F̃)^b
	i1 := m.IntUOneMinusFPow(tInf, b) // ∫ u(1-F̃)^b
	variance := 2*i1/success +
		2*tInf*qb*i0/(success*success) -
		(i0*i0)/(success*success)
	if variance < 0 {
		// Numerical cancellation can drive a tiny negative value.
		variance = 0
	}
	return math.Sqrt(variance)
}

// OptimizeMultiple minimizes EJ over the timeout for a fixed
// collection size b, returning the optimal t∞ and the evaluation at
// the optimum (σJ included, Parallel = b). An invalid b and a
// degenerate timeout bracket are errors, a done ctx aborts the scan
// with its error, and the grid rounds fan across up to `workers`
// goroutines (<= 0 means all cores; results are identical for every
// count).
func OptimizeMultiple(ctx context.Context, m Model, b int, workers int) (float64, Evaluation, error) {
	if err := ValidateB(b); err != nil {
		return 0, Evaluation{}, err
	}
	k := kernelsOf(m)
	r, err := optimizeTimeout(ctx, m, func(ts []float64) []float64 { return ejMultipleBatch(k, b, ts) }, workers)
	if err != nil {
		return 0, Evaluation{}, err
	}
	return r.X, Evaluation{
		EJ:       r.F,
		Sigma:    SigmaMultiple(m, b, r.X),
		Parallel: float64(b),
	}, nil
}

// MultipleCurve tabulates EJ(t∞) for one collection size over n
// uniformly spaced timeouts up to hi — the data behind Figure 2.
func MultipleCurve(m Model, b int, hi float64, n int) (timeouts, ej []float64) {
	checkB(b)
	if n < 2 || hi <= 0 {
		panic(fmt.Sprintf("core: invalid curve spec hi=%v n=%d", hi, n))
	}
	timeouts = make([]float64, n)
	for i := 0; i < n; i++ {
		timeouts[i] = hi * float64(i+1) / float64(n)
	}
	// The curve grid is ascending, so a kernel-backed model tabulates
	// the whole figure in one integral sweep.
	return timeouts, ejMultipleBatch(kernelsOf(m), b, timeouts)
}

// ValidateB checks the multiple-submission collection size.
func ValidateB(b int) error {
	if b < 1 {
		return fmt.Errorf("core: collection size b must be >= 1, got %d", b)
	}
	return nil
}

func checkB(b int) {
	if err := ValidateB(b); err != nil {
		panic(err.Error())
	}
}
