package gridstrat

// The benchmark harness regenerates every table and figure of the
// paper (Tables 1–6, Figures 1–8): `go test -bench=.` re-derives the
// full evaluation from the calibrated synthetic traces. Ablation
// benches at the bottom quantify the design choices called out in
// DESIGN.md (exact step integrals vs Monte Carlo, exact delayed law vs
// the paper's CDF formulas, optimizer variants).

import (
	"context"
	"io"
	"math/rand"
	"sync"
	"testing"

	"gridstrat/internal/core"
	"gridstrat/internal/experiments"
	"gridstrat/internal/optimize"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
)

func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		c, err := experiments.NewContext()
		if err != nil {
			b.Fatal(err)
		}
		benchCtx = c
	})
	return benchCtx
}

func benchModel(b *testing.B) *EmpiricalModel {
	b.Helper()
	m, err := benchContext(b).Model(experiments.ReferenceDataset)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// --- One benchmark per paper artifact ---

func BenchmarkTable1(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table6(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAll regenerates the complete evaluation end to end with
// the parallel harness (all cores) — the product path of cmd/repro.
func BenchmarkRunAll(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAll(c, io.Discard, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllSequential is the workers = 1 baseline that
// BenchmarkRunAll's parallel harness is compared against.
func BenchmarkRunAllSequential(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAll(c, io.Discard, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

// BenchmarkAblationEJSingleExact measures the exact step-function
// evaluation of Eq. 1 on the empirical model.
func BenchmarkAblationEJSingleExact(b *testing.B) {
	m := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EJSingle(m, 500)
	}
}

// BenchmarkAblationEJSingleMonteCarlo is the Monte Carlo alternative
// at 10k runs — the accuracy/cost trade-off the exact integrals avoid.
func BenchmarkAblationEJSingleMonteCarlo(b *testing.B) {
	m := benchModel(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Single{TInf: 500}).Simulate(m, 10000, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDelayedExact evaluates the exact geometric-series
// closed form of the delayed expectation.
func BenchmarkAblationDelayedExact(b *testing.B) {
	m := benchModel(b)
	p := DelayedParams{T0: 339, TInf: 485}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EJDelayed(m, p)
	}
}

// BenchmarkAblationDelayedPaperCDF evaluates the paper's own interval
// formulas for FJ on a grid (the Eq. 5 route).
func BenchmarkAblationDelayedPaperCDF(b *testing.B) {
	m := benchModel(b)
	p := DelayedParams{T0: 339, TInf: 485}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.EJDelayedPaper(m, p)
	}
}

// BenchmarkAblationDelayedMonteCarlo replays the delayed strategy at
// 10k runs.
func BenchmarkAblationDelayedMonteCarlo(b *testing.B) {
	m := benchModel(b)
	s := Delayed{T0: 339, TInf: 485}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Simulate(m, 10000, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNParallel measures the exact-mass Stieltjes
// evaluation of E[N‖].
func BenchmarkAblationNParallel(b *testing.B) {
	m := benchModel(b)
	p := DelayedParams{T0: 339, TInf: 485}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NParallelExpected(m, p)
	}
}

// Optimizer ablation: grid scan vs golden section vs Brent on the
// single-resubmission objective.
func BenchmarkAblationOptimizerGridScan(b *testing.B) {
	m := benchModel(b)
	// Point by point on one goroutine, like the line searches below.
	obj := func(ts []float64) []float64 {
		out := make([]float64, len(ts))
		for i, t := range ts {
			out[i] = EJSingle(m, t)
		}
		return out
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		optimize.GridScan1D(obj, 1, m.UpperBound(), 400, 4, 1)
	}
}

func BenchmarkAblationOptimizerGolden(b *testing.B) {
	m := benchModel(b)
	obj := func(t float64) float64 { return EJSingle(m, t) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		optimize.GoldenSection(obj, 1, m.UpperBound(), 1e-3)
	}
}

func BenchmarkAblationOptimizerBrent(b *testing.B) {
	m := benchModel(b)
	obj := func(t float64) float64 { return EJSingle(m, t) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		optimize.Brent(obj, 1, m.UpperBound(), 1e-6)
	}
}

// BenchmarkAblationOptimizerDelayedRatios times the cold delayed ratio
// sweep Recommend runs: the optimal t0 of all ten ratios of
// delayedRatioGrid on 2006-IX, on one goroutine, each iteration on a
// freshly built model (no kernel tables yet).
func BenchmarkAblationOptimizerDelayedRatios(b *testing.B) {
	tr, err := benchContext(b).Set.Get(experiments.ReferenceDataset)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := core.ModelFromTrace(tr)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := core.OptimizeDelayedRatios(context.Background(), m, delayedRatioGrid, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdRecommend times the planner layer of a cold plan: each
// iteration builds a fresh model of 2006-IX (no kernel tables, no
// candidate table) outside the timer, then runs an option-free
// Recommend on one goroutine (WithParallelism(1)) — the baseline, the
// b = 2 multiple optimum and the ten delayed ratio optima; no answer
// reads a delayed candidate's E[N‖], so it is not computed.
func BenchmarkColdRecommend(b *testing.B) {
	tr, err := benchContext(b).Set.Get(experiments.ReferenceDataset)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := core.ModelFromTrace(tr)
		if err != nil {
			b.Fatal(err)
		}
		p, err := NewPlanner(m, WithParallelism(1))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := p.Recommend(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOptimizerWarmSharedPlanner times the daemon's
// option-carrying recommend in process: each iteration builds a fresh
// Planner over one shared, warmed memoized model of 2006-IX, cycling
// max_parallel through 1–5, and runs Recommend on one goroutine.
func BenchmarkAblationOptimizerWarmSharedPlanner(b *testing.B) {
	tr, err := benchContext(b).Set.Get(experiments.ReferenceDataset)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.ModelFromTrace(tr)
	if err != nil {
		b.Fatal(err)
	}
	shared, err := NewPlanner(m)
	if err != nil {
		b.Fatal(err)
	}
	recommend := func(maxParallel float64) {
		p, err := NewPlanner(shared.Model(), WithParallelism(1), WithMaxParallel(maxParallel), WithDeadline(3000))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Recommend(); err != nil {
			b.Fatal(err)
		}
	}
	for mp := 1; mp <= 5; mp++ {
		recommend(float64(mp))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recommend(float64(i%5 + 1))
	}
}

// BenchmarkAblationCostOptimization measures the full Δcost
// minimization (the Table 5 per-week workload).
func BenchmarkAblationCostOptimization(b *testing.B) {
	m := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc, err := NewCostContext(context.Background(), m, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cc.OptimizeDelayedCost(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMonteCarloWorkers runs one large multiple-
// submission replay sequentially and on all cores: the sharded-
// simulator speedup ablation (results are bit-identical either way).
func BenchmarkAblationMonteCarloWorkers(b *testing.B) {
	m := benchModel(b)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				if _, err := core.SimulateMultiple(context.Background(), m, 3, 600, 200000, rng, bc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMonteCarloSampleSize sweeps the MC budget to show
// the error/cost trade-off against the exact value.
func BenchmarkAblationMonteCarloSampleSize(b *testing.B) {
	m := benchModel(b)
	for _, runs := range []int{1000, 10000, 100000} {
		runs := runs
		b.Run(itoa(runs), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				if _, err := (Multiple{B: 3, TInf: 600}).Simulate(m, runs, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(v int) string {
	switch v {
	case 1000:
		return "1k"
	case 10000:
		return "10k"
	case 100000:
		return "100k"
	}
	return "n"
}
