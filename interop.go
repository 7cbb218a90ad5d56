package gridstrat

import (
	"io"

	"gridstrat/internal/core"
	"gridstrat/internal/trace"
)

// ReadTraceGWF parses a trace from the Grid-Workload-Format flavored
// column layout (JobID SubmitTime WaitTime RunTime Status),
// interoperable with Grid Workload Archive tooling.
func ReadTraceGWF(r io.Reader) (*Trace, error) { return trace.ReadGWF(r) }

// WriteTraceGWF serializes a trace in the Grid-Workload-Format
// flavored column layout read back by ReadTraceGWF.
func WriteTraceGWF(w io.Writer, t *Trace) error { return trace.WriteGWF(w, t) }

// DeadlineReport compares strategies on P(J <= deadline).
type DeadlineReport = core.DeadlineReport

// DeadlineEntry is one strategy's deadline performance.
type DeadlineEntry = core.DeadlineEntry

// QuantileJ inverts a strategy CDF (from SingleCDF, MultipleCDF or
// DelayedCDF): the smallest t with P(J <= t) >= p.
func QuantileJ(cdf func(float64) float64, p, hint float64) float64 {
	return core.QuantileJ(cdf, p, hint)
}

// MixtureModel pools several latency regimes with weights — the
// non-stationary extension of the latency model (one regime per time
// window, weighted by submission volume).
type MixtureModel = core.MixtureModel

// NewMixtureModel pools models with positive weights.
func NewMixtureModel(models []Model, weights []float64) (*MixtureModel, error) {
	return core.NewMixtureModel(models, weights)
}

// Discretize converts any Model (mixture, parametric) into an
// exact-integral EmpiricalModel by quantile tabulation — the fast
// representation for the optimizers.
func Discretize(m Model, n int) (*EmpiricalModel, error) { return core.Discretize(m, n) }
