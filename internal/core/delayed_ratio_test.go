package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"gridstrat/internal/optimize"
	"gridstrat/internal/stats"
	"gridstrat/internal/trace"
)

// optimizeDelayedRatioOracle is the exhaustive per-ratio t0 scan the
// shared search replaced: five GridScan1D rounds of 401 points over
// [ub·1e-3, ub/2], each refining around the incumbent. It is the
// accuracy reference for OptimizeDelayedRatios.
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

// ejDelayedRatioBatch is the all-walk refinement round: EJDelayed
// along an ascending t0 grid with t∞ = ratio·t0 fixed, writing out[i]
// at t0 = qs[i]. qs holds the grid in its first len(out) entries and is
// filled with the w = t∞ - t0 grid in the rest, so one batch call
// answers both pow integrals; each cross term is its own scalar walk.
// Values are identical to per-point EJDelayed calls.
func ejDelayedRatioBatch(k kernels, ratio float64, qs, out []float64) {
	n := len(out)
	t0s, ws := qs[:n], qs[n:]
	for i, t0 := range t0s {
		ws[i] = ratio*t0 - t0
	}
	ints := k.IntOneMinusFPowBatch(qs, 1)
	for i, t0 := range t0s {
		q, ok := delayedCellQ(k, t0, ratio)
		if !ok {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = ejDelayedFrom(ints[i], ints[n+i], k.IntProdOneMinusF(ws[i], t0), q)
	}
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
		t0s := round0Grid(m)
		for _, ratios := range [][]float64{oracleRatios, descending} {
			vals := ejDelayedRatioGrid(context.Background(), k, ratios, t0s, 2, false)
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
		ps, evs, err := OptimizeDelayedRatios(context.Background(), m, oracleRatios, 2)
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
		ps1, evs1, err := OptimizeDelayedRatios(context.Background(), m, oracleRatios, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			ps, evs, err := OptimizeDelayedRatios(context.Background(), m, oracleRatios, workers)
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
			ps, evs, err := OptimizeDelayedRatios(context.Background(), m, []float64{ratio}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if ps[0] != ps1[j] || evs[0] != evs1[j] {
				t.Fatalf("%s ratio %v: single-ratio call (%+v, %+v), shared (%+v, %+v)", name, ratio, ps[0], evs[0], ps1[j], evs1[j])
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
		if _, _, err := OptimizeDelayedRatios(ctx, m, oracleRatios, workers); err != context.Canceled {
			t.Fatalf("workers %d: err = %v, want context.Canceled", workers, err)
		}
	}
	for _, bad := range []float64{1, 2.5, math.NaN()} {
		if _, _, err := OptimizeDelayedRatios(context.Background(), m, []float64{1.5, bad}, 1); err == nil {
			t.Fatalf("ratio %v: want an error", bad)
		}
	}
}

// optimizeDelayedRatiosAllWalk is OptimizeDelayedRatios with round 0
// walking the full grid and round 1 answered by ejDelayedRatioBatch,
// one scalar cross-term walk per point: the search as it ran before
// round-0 pruning and the one-pass ratio-grid kernel, and the oracle
// the kernel path must reproduce bit for bit.
func optimizeDelayedRatiosAllWalk(m Model, ratios []float64) ([]DelayedParams, []Evaluation) {
	ub := m.UpperBound()
	k := kernelsOf(m)
	a, b := ub*1e-3, ub/2
	h0 := (b - a) / ratioScanN
	t0s := make([]float64, ratioScanN+1)
	for i := range t0s {
		t0s[i] = a + float64(i)*h0
	}
	vals := ejDelayedRatioGrid(context.Background(), k, ratios, t0s, 1, false)
	ps := make([]DelayedParams, len(ratios))
	evs := make([]Evaluation, len(ratios))
	for j, ratio := range ratios {
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
			qs := make([]float64, 2*(ratioScanN+1))
			out := make([]float64, ratioScanN+1)
			for i := range out {
				qs[i] = lo + float64(i)*h1
			}
			ejDelayedRatioBatch(k, ratio, qs, out)
			scan(lo, h1, out)
			if lo, hi := math.Max(a, x-h1), math.Min(b, x+h1); lo < hi && !math.IsInf(f, 1) {
				r := optimize.Brent(func(t0 float64) float64 { return ejDelayedAt(k, ratio, t0) }, lo, hi, ratioPolishTol)
				if r.F < f {
					x, f = r.X, r.F
				}
			}
		}
		ps[j] = DelayedParams{T0: x, TInf: ratio * x}
		ev, err := DelayedEvaluate(m, ps[j])
		if err != nil {
			ev = Evaluation{EJ: math.Inf(1), Sigma: math.Inf(1), Parallel: 1}
		}
		evs[j] = ev
	}
	return ps, evs
}

// churnWindowModel is an ingest-shaped model: a 2000-record window of
// 2006-IX latencies resampled with 5% log-normal jitter and rounded to
// the millisecond, three outliers in 64, as a rolling service window
// holds after turnover.
func churnWindowModel(t *testing.T) *EmpiricalModel {
	t.Helper()
	spec, err := trace.LookupDataset("2006-IX")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	base := tr.Latencies()
	rng := rand.New(rand.NewSource(21))
	lat := make([]float64, 2000-2000*3/64)
	for i := range lat {
		v := base[rng.Intn(len(base))] * math.Exp(0.05*rng.NormFloat64())
		lat[i] = math.Min(math.Round(v*1000)/1000, tr.Timeout)
	}
	m, err := NewEmpiricalModel(stats.MustECDF(lat), 3.0/64, tr.Timeout)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ratioGridModels are the models the ratio-grid tests run on: the
// paper datasets, an ingest-shaped window, a sketch-backed model and a
// model without kernels.
func ratioGridModels(t *testing.T) map[string]Model {
	t.Helper()
	models := map[string]Model{
		"churnWindow": churnWindowModel(t),
		"scalarOnly":  scalarOnly{parityModel(t, 42, 0.1)},
	}
	pm := paperModels(t)
	for name, m := range pm {
		models[name] = m
	}
	first := pm[trace.PaperDatasets[0].Name]
	sk := stats.SketchFromECDF(first.ECDF(), 64)
	sm, err := NewEmpiricalModel(sk.View(), first.Rho(), first.UpperBound())
	if err != nil {
		t.Fatal(err)
	}
	models["sketch"] = sm
	return models
}

// TestOptimizeDelayedRatiosMatchesAllWalk pins the claims of the
// pruned round 0 and the one-pass round 1: with round 0 walking only
// the rows its bounds cannot rule out, and round 1 the kernel's cross
// terms and the exact confirmation, OptimizeDelayedRatios returns the
// parameters of the full-grid, all-walk search bit for bit at workers
// 1, 2 and 8, and its EJ and σ with DelayedParallels' E[N‖] are that
// search's DelayedEvaluate. The search itself leaves Parallel zero.
func TestOptimizeDelayedRatiosMatchesAllWalk(t *testing.T) {
	for name, m := range ratioGridModels(t) {
		wps, wevs := optimizeDelayedRatiosAllWalk(m, oracleRatios)
		for _, workers := range []int{1, 2, 8} {
			ps, evs, err := OptimizeDelayedRatios(context.Background(), m, oracleRatios, workers)
			if err != nil {
				t.Fatal(err)
			}
			pars, err := DelayedParallels(context.Background(), m, ps, workers)
			if err != nil {
				t.Fatal(err)
			}
			for j, ratio := range oracleRatios {
				if evs[j].Parallel != 0 {
					t.Fatalf("%s ratio %v: the search filled Parallel %v", name, ratio, evs[j].Parallel)
				}
				evs[j].Parallel = pars[j]
				if ps[j] != wps[j] || evs[j] != wevs[j] {
					t.Errorf("%s workers %d ratio %v: (%+v, %+v), all-walk (%+v, %+v)",
						name, workers, ratio, ps[j], evs[j], wps[j], wevs[j])
				}
			}
		}
	}
}

// TestRatioGridKernelAccuracy holds the one-pass cross terms to the
// kernel's stated bound on every round-1 grid of the search (all ten
// ratios around each ratio's round-0 incumbent) and checks that the
// confirmation margin is at least 1000 times that bound, so the exact
// re-evaluation cannot miss a minimizer. It also counts the points
// each round re-evaluates.
func TestRatioGridKernelAccuracy(t *testing.T) {
	if ratioConfirmTol < 1000*stats.ProdRatioGridTol {
		t.Fatalf("confirmation margin %g is under 1000× the kernel bound %g", ratioConfirmTol, stats.ProdRatioGridTol)
	}
	worst, points, confirmed, rounds := 0.0, 0, 0, 0
	for name, m := range ratioGridModels(t) {
		k := kernelsOf(m)
		if _, ok := k.(RatioGridIntegrals); !ok {
			continue
		}
		ub := m.UpperBound()
		a, b := ub*1e-3, ub/2
		h0 := (b - a) / ratioScanN
		t0s := make([]float64, ratioScanN+1)
		for i := range t0s {
			t0s[i] = a + float64(i)*h0
		}
		vals := ejDelayedRatioGrid(context.Background(), k, oracleRatios, t0s, 1, true)
		for j, ratio := range oracleRatios {
			x, f := a, math.Inf(1)
			for i, v := range vals[j*len(t0s) : (j+1)*len(t0s)] {
				if v < f {
					x, f = t0s[i], v
				}
			}
			lo, hi := math.Max(a, x-h0), math.Min(b, x+h0)
			h1 := (hi - lo) / ratioScanN
			fast := make([]float64, ratioScanN+1)
			if prodRatioGrid(k, ratio, lo, h1, fast) {
				t.Fatalf("%s: the kernel path reported walked values", name)
			}
			for i, c := range fast {
				t0 := lo + float64(i)*h1
				w := ratio*t0 - t0
				walk := k.IntProdOneMinusF(w, t0)
				err := math.Abs(c-walk) / (walk + (ratio-1)*t0)
				if !(err <= stats.ProdRatioGridTol) {
					t.Fatalf("%s ratio %v t0 %v: kernel %v, walk %v (scaled error %.3g)", name, ratio, t0, c, walk, err)
				}
				worst = math.Max(worst, err)
				points++
			}
			out := make([]float64, ratioScanN+1)
			ejDelayedRatioRound(k, ratio, lo, h1, out)
			for _, v := range out {
				if !math.IsInf(v, 1) {
					confirmed++
				}
			}
			rounds++
		}
	}
	t.Logf("%d points: worst scaled error %.3g (bound %g); %d rounds re-evaluated %d points",
		points, worst, stats.ProdRatioGridTol, rounds, confirmed)
}

// TestDelayedParallels: DelayedParallels is NParallelExpected at every
// point, bit for bit and in order at every worker count, 1 where the
// strategy diverges or the parameters are invalid, and a pre-cancelled
// ctx surfaces as context.Canceled.
func TestDelayedParallels(t *testing.T) {
	m := parityModel(t, 7, 0.12)
	ps, _, err := OptimizeDelayedRatios(context.Background(), m, oracleRatios, 2)
	if err != nil {
		t.Fatal(err)
	}
	never, err := NewEmpiricalModel(stats.MustECDF([]float64{500, 600}), 0.1, 10000)
	if err != nil {
		t.Fatal(err)
	}
	ps = append(ps, DelayedParams{T0: 300, TInf: 200}, DelayedParams{T0: -1, TInf: 1})
	for _, workers := range []int{1, 2, 8} {
		got, err := DelayedParallels(context.Background(), m, ps, workers)
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range ps {
			want := NParallelExpected(m, p)
			if p.Validate() != nil {
				want = 1
			}
			if math.Float64bits(got[j]) != math.Float64bits(want) {
				t.Fatalf("workers %d %+v: %v, want %v", workers, p, got[j], want)
			}
		}
	}
	// No success mass before t∞ = 400: the strategy diverges.
	if got, err := DelayedParallels(context.Background(), never, []DelayedParams{{T0: 300, TInf: 400}}, 1); err != nil || got[0] != 1 {
		t.Fatalf("diverging strategy: %v (%v), want 1", got, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		if _, err := DelayedParallels(ctx, m, ps, workers); err != context.Canceled {
			t.Fatalf("workers %d: err = %v, want context.Canceled", workers, err)
		}
	}
}
