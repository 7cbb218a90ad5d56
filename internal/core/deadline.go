package core

import (
	"fmt"
	"math"
)

// QuantileJ inverts a strategy's total-latency CDF: the smallest t
// with P(J <= t) >= p, found by doubling bracket + bisection (strategy
// CDFs are non-decreasing with geometric tails, so this terminates).
func QuantileJ(cdf func(float64) float64, p, hint float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	if hint <= 0 {
		hint = 1
	}
	hi := hint
	for cdf(hi) < p {
		hi *= 2
		if hi > 1e15 {
			return math.Inf(1)
		}
	}
	lo := 0.0
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if mid == lo || mid == hi {
			break
		}
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// DeadlineReport compares the three strategies on the probability of a
// task starting before a deadline.
type DeadlineReport struct {
	Deadline float64
	Single   DeadlineEntry
	Multiple DeadlineEntry
	Delayed  DeadlineEntry
}

// DeadlineEntry is one strategy's deadline performance.
type DeadlineEntry struct {
	Label       string
	Probability float64 // P(J <= deadline)
	Parallel    float64 // average copies in flight
	P95         float64 // 95th percentile of J
}

// NewDeadlineReport evaluates P(J <= deadline) and the 95th percentile
// of J for three tuned strategies: single resubmission at timeout tS,
// b-fold multiple submission at timeout tM, and delayed resubmission
// at p, which keeps parDelayed copies in flight on average. It is the
// "soft real-time" view of the paper's evaluation: users often care
// about tail quantiles, not expectations. The optima are the caller's
// (the Planner reads them from its candidate table); invalid deadlines
// and collection sizes are returned as errors.
func NewDeadlineReport(m Model, deadline, tS float64, b int, tM float64, p DelayedParams, parDelayed float64) (DeadlineReport, error) {
	if deadline <= 0 {
		return DeadlineReport{}, fmt.Errorf("core: non-positive deadline %v", deadline)
	}
	if err := ValidateB(b); err != nil {
		return DeadlineReport{}, err
	}
	cdfS := SingleCDF(m, tS)
	cdfM := MultipleCDF(m, b, tM)
	cdfD := DelayedCDF(m, p)
	return DeadlineReport{
		Deadline: deadline,
		Single: DeadlineEntry{
			Label:       fmt.Sprintf("single(t∞=%.0fs)", tS),
			Probability: cdfS(deadline),
			Parallel:    1,
			P95:         QuantileJ(cdfS, 0.95, tS),
		},
		Multiple: DeadlineEntry{
			Label:       fmt.Sprintf("multiple(b=%d, t∞=%.0fs)", b, tM),
			Probability: cdfM(deadline),
			Parallel:    float64(b),
			P95:         QuantileJ(cdfM, 0.95, tM),
		},
		Delayed: DeadlineEntry{
			Label:       fmt.Sprintf("delayed(t0=%.0fs, t∞=%.0fs)", p.T0, p.TInf),
			Probability: cdfD(deadline),
			Parallel:    parDelayed,
			P95:         QuantileJ(cdfD, 0.95, p.T0),
		},
	}, nil
}
