package core

import (
	"context"
	"math"
	"testing"

	"gridstrat/internal/optimize"
	"gridstrat/internal/trace"
)

// optimizeDelayedRatioOracle is the exhaustive per-ratio t0 scan the
// shared search replaced: five GridScan1D rounds of 401 points over
// [ub·1e-3, ub/2], each refining around the incumbent. It is the
// accuracy reference for OptimizeDelayedRatiosCtx.
func optimizeDelayedRatioOracle(m Model, ratio float64) (DelayedParams, Evaluation) {
	ub := m.UpperBound()
	k := kernelsOf(m)
	fb := func(t0s []float64) []float64 {
		qs := make([]float64, 2*len(t0s))
		copy(qs, t0s)
		out := make([]float64, len(t0s))
		ejDelayedRatioBatch(k, ratio, qs, out)
		return out
	}
	r := optimize.GridScan1D(fb, ub*1e-3, ub/2, ratioScanN, 4, 1)
	p := DelayedParams{T0: r.X, TInf: ratio * r.X}
	ev, err := DelayedEvaluate(m, p)
	if err != nil {
		return p, Evaluation{EJ: math.Inf(1), Sigma: math.Inf(1), Parallel: 1}
	}
	return p, ev
}

// paperModels returns the empirical models of the paper datasets: all
// twelve, or three under -short (the race step), as the other
// all-dataset oracle tests do.
func paperModels(t *testing.T) map[string]*EmpiricalModel {
	t.Helper()
	specs := trace.PaperDatasets
	if testing.Short() {
		specs = specs[:3]
	}
	out := make(map[string]*EmpiricalModel, len(specs))
	for _, spec := range specs {
		tr, err := trace.Synthesize(spec)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ModelFromTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		out[spec.Name] = m
	}
	return out
}

// TestDelayedRatioGridMatchesPerRatioBatch pins the shared coarse
// round: every (t0, ratio) value of ejDelayedRatioGrid equals the
// per-ratio ejDelayedRatioBatch value bit for bit, through the merged
// row walk (ascending ratios), the per-cell fallback (descending
// ratios leave every row's w grid non-monotone) and the pointwise
// adapter of a model without kernels.
func TestDelayedRatioGridMatchesPerRatioBatch(t *testing.T) {
	descending := make([]float64, len(oracleRatios))
	for i, r := range oracleRatios {
		descending[len(oracleRatios)-1-i] = r
	}
	models := map[string]Model{"scalarOnly": scalarOnly{parityModel(t, 42, 0.1)}}
	for name, m := range paperModels(t) {
		models[name] = m
	}
	cells := 0
	for name, m := range models {
		k := kernelsOf(m)
		ub := m.UpperBound()
		h := (ub/2 - ub*1e-3) / ratioScanN
		t0s := make([]float64, ratioScanN+1)
		for i := range t0s {
			t0s[i] = ub*1e-3 + float64(i)*h
		}
		for _, ratios := range [][]float64{oracleRatios, descending} {
			vals := ejDelayedRatioGrid(context.Background(), k, ratios, t0s, 2)
			for j, r := range ratios {
				qs := make([]float64, 2*len(t0s))
				copy(qs, t0s)
				want := make([]float64, len(t0s))
				ejDelayedRatioBatch(k, r, qs, want)
				for i, w := range want {
					cells++
					if got := vals[j*len(t0s)+i]; math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("%s ratio %v t0 %v: shared round %v, per-ratio %v", name, r, t0s[i], got, w)
					}
				}
			}
		}
	}
	t.Logf("%d cells bit-identical", cells)
}

// TestOptimizeDelayedRatiosWithinOracle bounds what the Brent polish
// may cost against the exhaustive five-round scan: on every
// (dataset, ratio) cell the shared search's EJ is at most the
// oracle's times (1+1e-9).
func TestOptimizeDelayedRatiosWithinOracle(t *testing.T) {
	const relTol = 1e-9
	worst, lower, cells := math.Inf(-1), 0, 0
	for name, m := range paperModels(t) {
		ps, evs, err := OptimizeDelayedRatiosCtx(context.Background(), m, oracleRatios, 2)
		if err != nil {
			t.Fatal(err)
		}
		for j, ratio := range oracleRatios {
			op, oev := optimizeDelayedRatioOracle(m, ratio)
			cells++
			rel := (evs[j].EJ - oev.EJ) / oev.EJ
			if !(evs[j].EJ <= oev.EJ*(1+relTol)) {
				t.Errorf("%s ratio %v: EJ %v at t0 %v, oracle %v at t0 %v (rel %+.3g)",
					name, ratio, evs[j].EJ, ps[j].T0, oev.EJ, op.T0, rel)
			}
			if rel < 0 {
				lower++
			}
			worst = math.Max(worst, rel)
		}
	}
	t.Logf("%d cells: worst EJ %+.3g relative to the oracle, %d below it", cells, worst, lower)
}

// TestOptimizeDelayedRatiosWorkerInvariant: the ratios are
// independent and the shared round is pointwise, so every worker
// count gives the same parameters and evaluations, and each equals a
// single-ratio call.
func TestOptimizeDelayedRatiosWorkerInvariant(t *testing.T) {
	for name, m := range map[string]Model{"empirical": parityModel(t, 7, 0.12), "scalarOnly": scalarOnly{parityModel(t, 42, 0.1)}} {
		ps1, evs1, err := OptimizeDelayedRatiosCtx(context.Background(), m, oracleRatios, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			ps, evs, err := OptimizeDelayedRatiosCtx(context.Background(), m, oracleRatios, workers)
			if err != nil {
				t.Fatal(err)
			}
			for j := range oracleRatios {
				if ps[j] != ps1[j] || evs[j] != evs1[j] {
					t.Fatalf("%s workers %d ratio %v: (%+v, %+v), workers 1 (%+v, %+v)",
						name, workers, oracleRatios[j], ps[j], evs[j], ps1[j], evs1[j])
				}
			}
		}
		for j, ratio := range oracleRatios {
			if p, ev := OptimizeDelayedRatio(m, ratio); p != ps1[j] || ev != evs1[j] {
				t.Fatalf("%s ratio %v: single-ratio call (%+v, %+v), shared (%+v, %+v)", name, ratio, p, ev, ps1[j], evs1[j])
			}
		}
	}
}

// TestOptimizeDelayedRatiosErrors: a pre-cancelled ctx surfaces as
// context.Canceled at every worker count, and one out-of-range ratio
// fails the whole call.
func TestOptimizeDelayedRatiosErrors(t *testing.T) {
	m := parityModel(t, 7, 0.12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 8} {
		if _, _, err := OptimizeDelayedRatiosCtx(ctx, m, oracleRatios, workers); err != context.Canceled {
			t.Fatalf("workers %d: err = %v, want context.Canceled", workers, err)
		}
	}
	for _, bad := range []float64{1, 2.5, math.NaN()} {
		if _, _, err := OptimizeDelayedRatiosCtx(context.Background(), m, []float64{1.5, bad}, 1); err == nil {
			t.Fatalf("ratio %v: want an error", bad)
		}
	}
}
