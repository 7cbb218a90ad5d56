// Package gridstrat is a library for modeling and optimizing user
// job-submission strategies on production grids, reproducing
// "Modeling User Submission Strategies on Production Grids" (Lingrand,
// Montagnat, Glatard — HPDC 2009).
//
// The paper's setting: on a large production grid (EGEE), the latency
// R between submitting a job and its execution start is high, heavy-
// tailed and polluted by an outlier ratio ρ of jobs that never start.
// Users fight this with client-side strategies. This library models
// three of them on top of the cumulative latency histogram
// F̃R(t) = (1-ρ)·FR(t):
//
//   - single resubmission: cancel and resubmit at a timeout t∞;
//   - multiple submission: submit b copies, cancel the rest when one
//     starts, resubmit the collection at t∞;
//   - delayed resubmission: submit a copy every t0 without cancelling
//     until each copy's own t∞ (at most two copies in flight when
//     t0 < t∞ ≤ 2·t0).
//
// For each strategy it computes the expected total latency EJ, its
// standard deviation σJ, the average parallel-copy count N‖, and the
// infrastructure cost Δcost = N‖·EJ/EJ(single optimum), and finds the
// optimal parameters. Latency models come from probe traces (exact
// step-function analytics), from parametric distributions, or from the
// bundled discrete-event grid simulator.
//
// The public API has two layers. The Strategy interface (with concrete
// types Single, Multiple and Delayed) models one parameterized policy:
// Evaluate, CDF, Optimize and Simulate. The Planner facade owns a
// latency model plus planning constraints (parallel-copy budget,
// deadline, Δcost ceiling, context, random source) and answers the
// high-level questions — Recommend, Rank, CompareDeadline,
// EstimateMakespan — optimizing each model's candidate configurations
// once and sharing them across queries and Planners.
//
// # Quick start
//
//	tr, _ := gridstrat.SynthesizeDataset("2006-IX")
//	m, _ := gridstrat.ModelFromTrace(tr)
//	p, _ := gridstrat.NewPlanner(m, gridstrat.WithMaxParallel(2))
//	rec, _ := p.Recommend()                            // fastest within the copy budget
//	cheap, _ := p.RecommendCheapest()                  // min Δcost (Eq. 6)
//	single, ev, _ := gridstrat.Single{}.Optimize(m)    // Eq. 1 optimum
//
// See the examples/ directory for complete programs and DESIGN.md for
// the architecture and the reproduction map of every table and figure
// in the paper.
package gridstrat

import (
	"context"
	"errors"
	"fmt"
	"io"

	"gridstrat/internal/core"
	"gridstrat/internal/experiments"
	"gridstrat/internal/gridsim"
	"gridstrat/internal/stats"
	"gridstrat/internal/trace"
)

// --- Traces and datasets ---

// Trace is a probe-job workload trace (see internal/trace).
type Trace = trace.Trace

// ProbeRecord is one probe observation in a Trace.
type ProbeRecord = trace.ProbeRecord

// Status is a probe terminal state.
type Status = trace.Status

// Probe terminal states.
const (
	StatusCompleted = trace.StatusCompleted
	StatusOutlier   = trace.StatusOutlier
	StatusFault     = trace.StatusFault
	StatusCancelled = trace.StatusCancelled
)

// DefaultTimeout is the paper's probe censoring bound (10,000 s).
const DefaultTimeout = trace.DefaultTimeout

// DatasetSpec describes one of the paper's trace sets.
type DatasetSpec = trace.DatasetSpec

// TraceSet is a named collection of traces.
type TraceSet = trace.Set

// PaperDatasets lists the paper's trace sets with their Table 1
// calibration targets.
func PaperDatasets() []DatasetSpec { return trace.PaperDatasets }

// SynthesizeDataset generates the named paper dataset (e.g.
// "2006-IX", "2007-51").
func SynthesizeDataset(name string) (*Trace, error) {
	spec, err := trace.LookupDataset(name)
	if err != nil {
		return nil, err
	}
	return trace.Synthesize(spec)
}

// SynthesizeAll generates every paper dataset plus the pooled
// "2007/08" aggregate.
func SynthesizeAll() (*TraceSet, error) { return trace.SynthesizeAll() }

// ReadTraceCSV parses a trace from the library's CSV format.
func ReadTraceCSV(r io.Reader) (*Trace, error) { return trace.ReadCSV(r) }

// WriteTraceCSV serializes a trace in the library's CSV format.
func WriteTraceCSV(w io.Writer, t *Trace) error { return trace.WriteCSV(w, t) }

// ReadTraceJSON parses a trace from its JSON form.
func ReadTraceJSON(r io.Reader) (*Trace, error) { return trace.ReadJSON(r) }

// WriteTraceJSON serializes a trace as JSON.
func WriteTraceJSON(w io.Writer, t *Trace) error { return trace.WriteJSON(w, t) }

// --- Latency models ---

// Model is the latency law F̃R consumed by all strategy formulas.
type Model = core.Model

// BatchIntegrals is the optional Model extension answering a whole
// ascending grid of integral queries in one sweep; EmpiricalModel
// implements it. A model implementing it
// together with ProdBothIntegrals is scanned through its own kernels,
// any other model through a pointwise adapter over its scalar methods.
// Implementations must return exactly the scalar methods' values, so
// the extension is purely a wall-clock optimization.
type BatchIntegrals = core.BatchIntegrals

// ProdBothIntegrals is the optional Model extension returning both
// delayed cross-term integrals from one merged walk (see
// BatchIntegrals).
type ProdBothIntegrals = core.ProdBothIntegrals

// EmpiricalModel is an exact trace-driven Model.
type EmpiricalModel = core.EmpiricalModel

// TableKey identifies one lazily built ECDF integral kernel. An
// EmpiricalModel's TableKeys lists the kernels its queries have
// built; Prewarm on a successor model rebuilds them ahead of an
// atomic model swap, so the first post-swap queries run on hot tables
// (the warm-cache handoff the gridstratd ingestion pipeline performs
// on every rolling-window rebuild).
type TableKey = stats.TableKey

// ParametricModel is a Model over an analytic latency distribution.
type ParametricModel = core.ParametricModel

// Distribution is a univariate continuous distribution (see
// internal/stats for the provided families and fitting routines).
type Distribution = stats.Distribution

// ModelFromTrace builds the empirical latency model of a trace.
func ModelFromTrace(t *Trace) (*EmpiricalModel, error) { return core.ModelFromTrace(t) }

// NewEmpiricalModelFromLatencies builds a model from raw non-outlier
// latencies plus an outlier ratio and timeout. It returns an error for
// an empty sample or a NaN or negative latency.
func NewEmpiricalModelFromLatencies(latencies []float64, rho, timeout float64) (*EmpiricalModel, error) {
	e, err := stats.NewECDF(latencies)
	if err != nil {
		return nil, err
	}
	return core.NewEmpiricalModel(e, rho, timeout)
}

// NewParametricModel wraps a latency distribution with an outlier
// ratio and upper bound.
func NewParametricModel(d Distribution, rho, timeout float64) (*ParametricModel, error) {
	return core.NewParametricModel(d, rho, timeout)
}

// --- Strategies ---

// Evaluation is a strategy outcome: EJ, σJ and N‖.
type Evaluation = core.Evaluation

// DelayedParams are the delayed-resubmission knobs (t0, t∞).
type DelayedParams = core.DelayedParams

// SimResult is a Monte Carlo outcome.
type SimResult = core.SimResult

// EJSingle evaluates Eq. 1: the expected total latency of single
// resubmission at timeout tInf.
func EJSingle(m Model, tInf float64) float64 { return core.EJSingle(m, tInf) }

// SigmaSingle evaluates Eq. 2: the standard deviation of the single
// resubmission total latency at timeout tInf.
func SigmaSingle(m Model, tInf float64) float64 { return core.SigmaSingle(m, tInf) }

// EJMultiple evaluates Eq. 3: the expected total latency of b-fold
// multiple submission at timeout tInf.
func EJMultiple(m Model, b int, tInf float64) float64 { return core.EJMultiple(m, b, tInf) }

// SigmaMultiple evaluates Eq. 4: the standard deviation of the b-fold
// multiple submission total latency at timeout tInf.
func SigmaMultiple(m Model, b int, tInf float64) float64 { return core.SigmaMultiple(m, b, tInf) }

// EJDelayed evaluates the exact delayed-resubmission expectation (the
// quantity approximated by the paper's Eq. 5).
func EJDelayed(m Model, p DelayedParams) float64 { return core.EJDelayed(m, p) }

// SigmaDelayed evaluates the standard deviation of the delayed
// resubmission total latency at fixed parameters.
func SigmaDelayed(m Model, p DelayedParams) float64 { return core.SigmaDelayed(m, p) }

// NParallelExpected returns E[N‖] of the delayed strategy (§6.1).
func NParallelExpected(m Model, p DelayedParams) float64 { return core.NParallelExpected(m, p) }

// DelayedEvaluate bundles EJ, σJ and E[N‖] at fixed parameters.
func DelayedEvaluate(m Model, p DelayedParams) (Evaluation, error) {
	return core.DelayedEvaluate(m, p)
}

// OptimizeDelayedRatio minimizes over t0 with t∞/t0 fixed (§6.2). A
// ratio outside (1, 2] is an error, a done ctx aborts the scan with its
// error, and the scan fans across up to workers goroutines (<= 0 means
// all cores; results are identical for every count). The other
// optimizers are the Strategy methods: Single{}.Optimize(m) and so on.
func OptimizeDelayedRatio(ctx context.Context, m Model, ratio float64, workers int) (DelayedParams, Evaluation, error) {
	ps, evs, err := core.OptimizeDelayedRatios(ctx, m, []float64{ratio}, workers)
	if err != nil {
		return DelayedParams{}, Evaluation{}, err
	}
	pars, err := core.DelayedParallels(ctx, m, ps, workers)
	if err != nil {
		return DelayedParams{}, Evaluation{}, err
	}
	evs[0].Parallel = pars[0]
	return ps[0], evs[0], nil
}

// --- Cost criterion (Eq. 6) ---

// CostContext anchors Δcost on the single-resubmission optimum.
type CostContext = core.CostContext

// CostResult is a Δcost minimization outcome.
type CostResult = core.CostResult

// NewCostContext optimizes the single-resubmission baseline of m. A
// done ctx aborts the optimization with its error; its scan fans across
// up to workers goroutines (<= 0 means all cores; results are identical
// for every count).
func NewCostContext(ctx context.Context, m Model, workers int) (*CostContext, error) {
	return core.NewCostContext(ctx, m, workers)
}

// --- Grid simulator ---

// GridConfig configures the discrete-event grid simulator.
type GridConfig = gridsim.GridConfig

// Grid is a live grid simulation.
type Grid = gridsim.Grid

// ProbeConfig drives a constant-load probe campaign.
type ProbeConfig = gridsim.ProbeConfig

// DefaultGrid returns a biomed-VO-like simulated infrastructure.
func DefaultGrid(sites int, seed int64) GridConfig { return gridsim.DefaultGrid(sites, seed) }

// NewGrid builds a grid simulation.
func NewGrid(cfg GridConfig) (*Grid, error) { return gridsim.New(cfg) }

// RunProbes executes a probe measurement campaign against a simulated
// grid, returning a trace.
func RunProbes(g *Grid, cfg ProbeConfig, name string) (*Trace, error) {
	return gridsim.RunProbes(g, cfg, name)
}

// DefaultProbeConfig mirrors the paper's campaign shape.
func DefaultProbeConfig(total int) ProbeConfig { return gridsim.DefaultProbeConfig(total) }

// SimStrategySpec fully parameterizes a client strategy for replay
// against a simulated grid.
type SimStrategySpec = gridsim.StrategySpec

// SimOutcome aggregates a grid-replay campaign.
type SimOutcome = gridsim.StrategyOutcome

// SimSpec translates a tuned Strategy into the grid simulator's
// replayable spec, closing the loop between what the model recommends
// and what a live grid does under it.
func SimSpec(s Strategy) (SimStrategySpec, error) {
	if s == nil {
		return SimStrategySpec{}, errors.New("gridstrat: nil strategy")
	}
	p := s.Params()
	switch s.Name() {
	case StrategySingle:
		return SimStrategySpec{Kind: gridsim.StrategySingle, TInf: p.TInf}, nil
	case StrategyMultiple:
		return SimStrategySpec{Kind: gridsim.StrategyMultiple, TInf: p.TInf, B: p.B}, nil
	case StrategyDelayed:
		return SimStrategySpec{
			Kind:    gridsim.StrategyDelayed,
			Delayed: core.DelayedParams{T0: p.T0, TInf: p.TInf},
		}, nil
	}
	return SimStrategySpec{}, fmt.Errorf("gridstrat: no simulator spec for strategy %q", s.Name())
}

// RunStrategySim replays a strategy spec for a task campaign against a
// live simulated grid.
func RunStrategySim(g *Grid, spec SimStrategySpec, tasks, maxRounds int, runtime float64) (SimOutcome, error) {
	return gridsim.RunStrategy(g, spec, tasks, maxRounds, runtime)
}

// --- Experiments ---

// Experiments is a handle over the paper's full evaluation.
type Experiments = experiments.Context

// NewExperiments synthesizes all datasets and prepares the experiment
// harness that regenerates every table and figure.
func NewExperiments() (*Experiments, error) { return experiments.NewContext() }

// WriteAllExperiments regenerates every table and figure into dir,
// fanning independent artifacts across all CPUs. Artifact contents are
// identical for every worker count; only the progress-line order
// varies.
func WriteAllExperiments(c *Experiments, dir string, progress io.Writer) error {
	return experiments.WriteAll(c, dir, progress, 0)
}

// WriteAllExperimentsN is WriteAllExperiments with an explicit worker
// count (n <= 0 means all cores; n = 1 regenerates sequentially).
func WriteAllExperimentsN(c *Experiments, dir string, progress io.Writer, n int) error {
	return experiments.WriteAll(c, dir, progress, n)
}
