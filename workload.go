package gridstrat

import (
	"gridstrat/internal/core"
	"gridstrat/internal/trace"
	"gridstrat/internal/workload"
)

// --- Application makespan modeling (the paper's future-work §8) ---

// Application is a latency-dominated bag of tasks run in waves.
type Application = workload.Application

// MakespanEstimate is the analytic makespan under one strategy.
type MakespanEstimate = workload.MakespanEstimate

// --- SLO-class planning ---

// SLOClass is a planning-side SLO class, mirroring the admission
// tiers the daemon enforces (critical | standard | sheddable).
type SLOClass = workload.Class

// Planning-side SLO classes in priority order.
const (
	ClassCritical  SLOClass = workload.ClassCritical
	ClassStandard  SLOClass = workload.ClassStandard
	ClassSheddable SLOClass = workload.ClassSheddable
)

// ParseSLOClass maps a class name ("critical", "standard",
// "sheddable") to its value.
func ParseSLOClass(s string) (SLOClass, error) { return workload.ParseClass(s) }

// SLOClasses returns the three classes in priority order.
func SLOClasses() []SLOClass { return workload.Classes() }

// ClassPolicy is one class's planning SLO: deadline, required hit
// probability, parallel-copy budget, Δcost ceiling.
type ClassPolicy = workload.ClassPolicy

// ClassDemand is one class's application demand under contended
// capacity.
type ClassDemand = workload.ClassDemand

// ClassAllocation is the contended planner's per-class verdict.
type ClassAllocation = workload.ClassAllocation

// DefaultClassPolicies derives the three class policies from the
// deadline the critical class must meet.
func DefaultClassPolicies(deadline float64) []ClassPolicy { return workload.DefaultPolicies(deadline) }

// SmallestMeetingDeadlineByClass allocates collection sizes to
// per-class demands in priority order under a shared parallel-copy
// capacity — the class-aware SmallestMeetingDeadline. Prefer
// Planner.PlanClasses, the same allocation on the Planner's model.
func SmallestMeetingDeadlineByClass(m Model, demands []ClassDemand, capacity float64, maxB int) ([]ClassAllocation, float64, error) {
	return workload.SmallestMeetingDeadlineContended(m, demands, capacity, maxB)
}

// --- Strategy CDFs and order statistics ---

// SingleCDF returns the distribution function of the total latency J
// under single resubmission at timeout tInf.
func SingleCDF(m Model, tInf float64) func(float64) float64 { return core.SingleCDF(m, tInf) }

// MultipleCDF returns the distribution function of the total latency J
// under b-fold multiple submission at timeout tInf.
func MultipleCDF(m Model, b int, tInf float64) func(float64) float64 {
	return core.MultipleCDF(m, b, tInf)
}

// DelayedCDF returns the distribution function of the total latency J
// under delayed resubmission at fixed parameters.
func DelayedCDF(m Model, p DelayedParams) func(float64) float64 { return core.DelayedCDF(m, p) }

// ExpectedMax returns E[max of n i.i.d. draws] for a non-negative law
// given by its CDF (hint scales the integration grid). A nil CDF or
// n < 1 yields NaN.
func ExpectedMax(cdf func(float64) float64, n int, hint float64) float64 {
	return core.ExpectedMax(cdf, n, hint)
}

// --- Estimation uncertainty ---

// BootstrapCI is a percentile bootstrap confidence interval.
type BootstrapCI = core.BootstrapCI

// BootstrapSingleEJ returns a CI for EJ under single resubmission at a
// fixed timeout.
func BootstrapSingleEJ(m *EmpiricalModel, tInf float64, resamples int, level float64, rng Rand) (BootstrapCI, error) {
	return core.BootstrapSingleEJ(m, tInf, resamples, level, rng)
}

// BootstrapDelayedEJ returns a CI for EJ under the delayed strategy at
// fixed parameters.
func BootstrapDelayedEJ(m *EmpiricalModel, p DelayedParams, resamples int, level float64, rng Rand) (BootstrapCI, error) {
	return core.BootstrapDelayedEJ(m, p, resamples, level, rng)
}

// BootstrapStatistic returns a CI for any statistic of the latency
// model.
func BootstrapStatistic(m *EmpiricalModel, stat func(Model) float64, resamples int, level float64, rng Rand) (BootstrapCI, error) {
	return core.BootstrapStatistic(m, stat, resamples, level, rng)
}

// --- Non-stationarity analysis ---

// TraceStats is the per-trace (or per-window) summary.
type TraceStats = trace.Stats

// StationarityReport summarizes windowed latency drift and trend.
type StationarityReport = trace.StationarityReport

// WindowStats splits a trace into submit-time windows and summarizes
// each.
func WindowStats(t *Trace, window float64) ([]TraceStats, error) {
	return trace.WindowStats(t, window)
}

// AnalyzeStationarity computes the drift/trend report of a trace.
func AnalyzeStationarity(t *Trace, window float64) (StationarityReport, error) {
	return trace.AnalyzeStationarity(t, window)
}
