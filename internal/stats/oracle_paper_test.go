package stats_test

import (
	"testing"

	"gridstrat/internal/stats"
	"gridstrat/internal/trace"
)

// TestKernelsMatchOracleOnPaperDatasets holds every kernel to the exact
// oracle on the 12 paper datasets at their own scale s = 1-ρ: the pow
// integrals at the powers the optimizers use, the cross terms at
// shifts across the support, and the ratio grid at three of the
// paper's ratios over a 401-point grid.
func TestKernelsMatchOracleOnPaperDatasets(t *testing.T) {
	for _, spec := range trace.PaperDatasets {
		tr, err := trace.Synthesize(spec)
		if err != nil {
			t.Fatal(err)
		}
		e, err := tr.ECDF()
		if err != nil {
			t.Fatal(err)
		}
		s := 1 - tr.OutlierRatio()
		var Ts []float64
		for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			q := e.Quantile(p)
			Ts = append(Ts, q, q*1.01)
		}
		Ts = append(Ts, 0, tr.Timeout)
		shifts := []float64{0, e.Quantile(0.1), e.Quantile(0.5), e.Quantile(0.9)}
		stats.CheckKernelsAgainstOracle(t, e, s, Ts, shifts, []int{1, 2, 3, 5, 8})
		lo, hi := e.Quantile(0.05), e.Quantile(0.75)
		for _, r := range []float64{1.1, 1.5, 2} {
			stats.CheckRatioGridAgainstOracle(t, e, r, lo, (hi-lo)/400, s, 401, 40)
		}
	}
}
