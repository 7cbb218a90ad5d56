package core

import (
	"context"
	"math/rand"
	"testing"

	"gridstrat/internal/stats"
)

// scalarOnly strips the optional BatchIntegrals / ProdBothIntegrals
// extensions from a model by embedding the bare interface, so every
// optimizer scans it through the pointwise adapter over its scalar
// methods.
type scalarOnly struct{ Model }

func parityModel(t *testing.T, seed int64, rho float64) *EmpiricalModel {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sample := make([]float64, 1200)
	for i := range sample {
		sample[i] = rng.ExpFloat64()*450 + 30
	}
	m, err := NewEmpiricalModel(stats.MustECDF(sample), rho, 10000)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBatchOptimizersMatchScalarPath is the cross-layer exactness gate
// of the kernelized engine: every optimizer that detects
// BatchIntegrals must return bit-identical results with the extension
// hidden (the pointwise adapter over the scalar kernels) and visible
// (swept batch kernels), at several worker counts.
func TestBatchOptimizersMatchScalarPath(t *testing.T) {
	ctx := context.Background()
	for _, rho := range []float64{0, 0.17} {
		m := parityModel(t, 42, rho)
		sm := scalarOnly{m}
		if _, ok := Model(sm).(BatchIntegrals); ok {
			t.Fatal("scalarOnly must hide the batch extension")
		}

		for _, b := range []int{1, 3, 5} {
			for _, workers := range []int{1, 4} {
				tb, evb, err := OptimizeMultipleCtx(ctx, m, b, workers)
				if err != nil {
					t.Fatal(err)
				}
				ts, evs, err := OptimizeMultipleCtx(ctx, sm, b, workers)
				if err != nil {
					t.Fatal(err)
				}
				if tb != ts || evb != evs {
					t.Fatalf("b=%d workers=%d: batch (%v, %+v) != scalar (%v, %+v)", b, workers, tb, evb, ts, evs)
				}
			}
		}

		tsb, ejb := MultipleCurve(m, 4, 2000, 250)
		tss, ejs := MultipleCurve(sm, 4, 2000, 250)
		for i := range tsb {
			if tsb[i] != tss[i] || ejb[i] != ejs[i] {
				t.Fatalf("MultipleCurve[%d]: batch (%v, %v) != scalar (%v, %v)", i, tsb[i], ejb[i], tss[i], ejs[i])
			}
		}

		pb, evb, err := OptimizeDelayedCtx(ctx, m, 1)
		if err != nil {
			t.Fatal(err)
		}
		ps, evs, err := OptimizeDelayedCtx(ctx, sm, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pb != ps || evb != evs {
			t.Fatalf("OptimizeDelayed: batch (%+v, %+v) != scalar (%+v, %+v)", pb, evb, ps, evs)
		}

		ratios := []float64{1.3, 2.0}
		pbs, evbs, err := OptimizeDelayedRatiosCtx(ctx, m, ratios, 2)
		if err != nil {
			t.Fatal(err)
		}
		pss, evss, err := OptimizeDelayedRatiosCtx(ctx, sm, ratios, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, ratio := range ratios {
			if pbs[i] != pss[i] || evbs[i] != evss[i] {
				t.Fatalf("ratio %v: batch (%+v, %+v) != scalar (%+v, %+v)", ratio, pbs[i], evbs[i], pss[i], evss[i])
			}
		}

		ccb, err := NewCostContextCtx(ctx, m, 1)
		if err != nil {
			t.Fatal(err)
		}
		ccs, err := NewCostContextCtx(ctx, sm, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ccb.RefTimeout != ccs.RefTimeout || ccb.RefEJ != ccs.RefEJ {
			t.Fatalf("cost baselines diverged: %+v vs %+v", ccb, ccs)
		}
		rb, err := ccb.OptimizeDelayedCostCtx(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := ccs.OptimizeDelayedCostCtx(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rb != rs {
			t.Fatalf("OptimizeDelayedCost: batch %+v != scalar %+v", rb, rs)
		}
	}
}

// TestScalarOnlyOptimizersHonorCancellation: models without batch
// kernels (a stripped empirical model, a quadrature-backed parametric
// one) run through the pointwise adapter, and a pre-cancelled context
// must still surface as context.Canceled from every optimizer.
func TestScalarOnlyOptimizersHonorCancellation(t *testing.T) {
	pm, err := NewParametricModel(stats.NewLogNormal(5.5, 0.8), 0.1, 10000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, m := range map[string]Model{"scalarOnly": scalarOnly{parityModel(t, 42, 0.1)}, "parametric": pm} {
		cc, err := NewCostContextCtx(context.Background(), m, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			if _, _, err := OptimizeMultipleCtx(ctx, m, 3, workers); err != context.Canceled {
				t.Fatalf("%s workers %d: OptimizeMultipleCtx err = %v, want context.Canceled", name, workers, err)
			}
			if _, _, err := OptimizeDelayedCtx(ctx, m, workers); err != context.Canceled {
				t.Fatalf("%s workers %d: OptimizeDelayedCtx err = %v, want context.Canceled", name, workers, err)
			}
			if _, _, err := OptimizeDelayedRatiosCtx(ctx, m, []float64{1.5}, workers); err != context.Canceled {
				t.Fatalf("%s workers %d: OptimizeDelayedRatiosCtx err = %v, want context.Canceled", name, workers, err)
			}
			if _, err := cc.OptimizeDelayedCostCtx(ctx, workers); err != context.Canceled {
				t.Fatalf("%s workers %d: OptimizeDelayedCostCtx err = %v, want context.Canceled", name, workers, err)
			}
		}
	}
}

// TestKernelIntegralsMatchWalkersOnModel re-checks the four Model
// integral methods against the exported reference walkers through the
// EmpiricalModel's s = 1-ρ scaling.
func TestKernelIntegralsMatchWalkersOnModel(t *testing.T) {
	m := parityModel(t, 7, 0.12)
	e := m.ECDF()
	s := 1 - m.Rho()
	for _, T := range []float64{0, 25, 333.25, 5000, 20000} {
		for _, b := range []int{1, 2, 5, 10} {
			if got, want := m.IntOneMinusFPow(T, b), e.IntegralOneMinusFPowWalk(T, s, b); relDiff(got, want) > 1e-12 {
				t.Fatalf("IntOneMinusFPow(%v, %d) = %v, walker %v", T, b, got, want)
			}
			if got, want := m.IntUOneMinusFPow(T, b), e.IntegralUOneMinusFPowWalk(T, s, b); relDiff(got, want) > 1e-12 {
				t.Fatalf("IntUOneMinusFPow(%v, %d) = %v, walker %v", T, b, got, want)
			}
		}
		for _, shift := range []float64{0, 100, 7000} {
			if got, want := m.IntProdOneMinusF(T, shift), e.IntegralProdOneMinusFWalk(T, shift, s); got != want {
				t.Fatalf("IntProdOneMinusF(%v, %v) = %v, walker %v", T, shift, got, want)
			}
			if got, want := m.IntUProdOneMinusF(T, shift), e.IntegralUProdOneMinusFWalk(T, shift, s); got != want {
				t.Fatalf("IntUProdOneMinusF(%v, %v) = %v, walker %v", T, shift, got, want)
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if ab := b; ab > 1 || ab < -1 {
		if ab < 0 {
			ab = -ab
		}
		scale = ab
	}
	return d / scale
}

// TestHugeExponentNoOverflow guards the float→int exponent conversions
// against the pre-kernel behaviour: CDFs and survival functions at
// astronomically large times must return their limits, not crash on an
// overflowed integer exponent.
func TestHugeExponentNoOverflow(t *testing.T) {
	m := parityModel(t, 3, 0.1) // latencies ≈ Exp(450)+30: mass above 50
	cdf := MultipleCDF(m, 2, 50)
	// k = floor(1e21/50) = 2e19 >= 2^62: must take the math.Pow branch
	// and return the q^k → 0 limit, i.e. certain success.
	if got := cdf(1e21); got != 1 {
		t.Fatalf("MultipleCDF at huge t/tInf = %v, want 1", got)
	}
	p := DelayedParams{T0: 100, TInf: 150}
	if got := DelayedSurvival(m, p, 1e21); got != 0 {
		t.Fatalf("DelayedSurvival at huge t/T0 = %v, want 0", got)
	}
	// A zero-success-mass timeout keeps its historical limit (q = 1).
	if got := MultipleCDF(m, 2, 1e-9)(1e10); got != 0 {
		t.Fatalf("MultipleCDF with no success mass = %v, want 0", got)
	}
}
