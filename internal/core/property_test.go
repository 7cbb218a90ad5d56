package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gridstrat/internal/stats"
)

// randomModel builds a small random empirical model from quick-check
// raw material, exercising the analytics far from the calibrated
// datasets (tiny samples, duplicated values, extreme rho).
func randomModel(raw []float64, rawRho float64) (*EmpiricalModel, bool) {
	if len(raw) == 0 {
		return nil, false
	}
	lat := make([]float64, 0, len(raw))
	for _, v := range raw {
		x := math.Abs(math.Mod(v, 5000))
		if x == 0 || math.IsNaN(x) {
			x = 1
		}
		lat = append(lat, x)
	}
	rho := math.Abs(math.Mod(rawRho, 0.9))
	e, err := stats.NewECDF(lat)
	if err != nil {
		return nil, false
	}
	m, err := NewEmpiricalModel(e, rho, 10000)
	if err != nil {
		return nil, false
	}
	return m, true
}

func TestPropertyEJMultipleDominance(t *testing.T) {
	// At any timeout and any model, more copies never hurt, and EJ is
	// bounded below by the conditional mean of the winning round.
	f := func(raw []float64, rawRho, rawT float64) bool {
		m, ok := randomModel(raw, rawRho)
		if !ok {
			return true
		}
		T := 1 + math.Abs(math.Mod(rawT, 9000))
		prev := math.Inf(1)
		for b := 1; b <= 6; b++ {
			ej := EJMultiple(m, b, T)
			if ej > prev+1e-9 {
				return false
			}
			if !math.IsInf(ej, 1) && ej < 0 {
				return false
			}
			prev = ej
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEJSingleGeometricIdentity(t *testing.T) {
	// Eq. 1 equals the direct geometric decomposition
	// E[J] = E[R | R<t∞] + t∞·(1-F̃)/F̃.
	f := func(raw []float64, rawRho, rawT float64) bool {
		m, ok := randomModel(raw, rawRho)
		if !ok {
			return true
		}
		T := 1 + math.Abs(math.Mod(rawT, 9000))
		ft := m.Ftilde(T)
		if ft <= 0 {
			return math.IsInf(EJSingle(m, T), 1)
		}
		// E[R·1(R<T)] = ∫₀ᵀ u dF̃ = T·F̃(T) - ∫₀ᵀ F̃ = T·F̃(T) - (T - ∫(1-F̃)).
		intOne := m.IntOneMinusFPow(T, 1)
		condMean := (T*ft - (T - intOne)) / ft
		want := condMean + T*(1-ft)/ft
		got := EJSingle(m, T)
		return math.Abs(got-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDelayedSurvivalBounds(t *testing.T) {
	// G(t) = P(J > t) is a survival function: within [0,1], monotone
	// non-increasing, and bounded by the first copy's own factor
	// 1 - F̃(min(t, t∞)).
	//
	// Note it is NOT bounded by the un-canceled single-job survival
	// 1 - F̃(t): when all latency mass lies above t∞, cancelling at t∞
	// loses starts a patient job would have gotten — the quick-check
	// harness found exactly that counterexample to an earlier,
	// stronger version of this property.
	f := func(raw []float64, rawRho, rawT0, rawRatio float64) bool {
		m, ok := randomModel(raw, rawRho)
		if !ok {
			return true
		}
		t0 := 1 + math.Abs(math.Mod(rawT0, 4000))
		ratio := 1.001 + math.Abs(math.Mod(rawRatio, 0.998))
		p := DelayedParams{T0: t0, TInf: ratio * t0}
		if p.Validate() != nil {
			return true
		}
		prev := 1.0
		for i := 0; i <= 80; i++ {
			x := float64(i) * (8 * t0 / 80)
			g := DelayedSurvival(m, p, x)
			if g < -1e-12 || g > 1+1e-12 {
				return false
			}
			if g > prev+1e-9 {
				return false // survival must be non-increasing
			}
			prev = g
			firstFactor := 1 - m.Ftilde(math.Min(x, p.TInf))
			if g > firstFactor+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDelayedClosedFormVsStieltjes(t *testing.T) {
	// The geometric-series closed form must match the cell-mass
	// expectation on arbitrary models.
	f := func(raw []float64, rawRho, rawT0, rawRatio float64) bool {
		m, ok := randomModel(raw, rawRho)
		if !ok {
			return true
		}
		t0 := 10 + math.Abs(math.Mod(rawT0, 3000))
		ratio := 1.05 + math.Abs(math.Mod(rawRatio, 0.9))
		p := DelayedParams{T0: t0, TInf: ratio * t0}
		if p.Validate() != nil {
			return true
		}
		closed := EJDelayed(m, p)
		if math.IsInf(closed, 1) {
			return true // no success mass; Stieltjes would diverge too
		}
		stieltjes := expectDelayed(m, p, delayedExpectCells, func(l float64) float64 { return l })
		return math.Abs(closed-stieltjes) < 5e-3*math.Max(1, closed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCDFQuantileConsistency(t *testing.T) {
	f := func(raw []float64, rawRho, rawT, rawP float64) bool {
		m, ok := randomModel(raw, rawRho)
		if !ok {
			return true
		}
		T := 10 + math.Abs(math.Mod(rawT, 5000))
		if m.Ftilde(T) <= 0 {
			return true
		}
		p := 0.01 + math.Abs(math.Mod(rawP, 0.98))
		cdf := SingleCDF(m, T)
		x := QuantileJ(cdf, p, T)
		if math.IsInf(x, 1) {
			return false
		}
		return cdf(x) >= p-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareDeadline(t *testing.T) {
	m := testEmpirical(t)
	ctx := context.Background()
	tS, _, err := OptimizeSingle(ctx, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	tM, _, err := OptimizeMultiple(ctx, m, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, ev, err := OptimizeDelayed(ctx, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewDeadlineReport(m, 600, tS, 4, tM, p, ev.Parallel)
	if err != nil {
		t.Fatal(err)
	}
	// More redundancy ⇒ higher deadline probability.
	if !(rep.Multiple.Probability > rep.Single.Probability) {
		t.Fatalf("b=4 P=%v should beat single P=%v",
			rep.Multiple.Probability, rep.Single.Probability)
	}
	if !(rep.Delayed.Probability >= rep.Single.Probability-1e-9) {
		t.Fatalf("delayed P=%v should not trail single P=%v",
			rep.Delayed.Probability, rep.Single.Probability)
	}
	// P95 ordering mirrors it.
	if !(rep.Multiple.P95 < rep.Single.P95) {
		t.Fatalf("b=4 P95=%v should beat single P95=%v", rep.Multiple.P95, rep.Single.P95)
	}
	for _, e := range []DeadlineEntry{rep.Single, rep.Multiple, rep.Delayed} {
		if e.Probability < 0 || e.Probability > 1 {
			t.Fatalf("%s: probability %v", e.Label, e.Probability)
		}
		if e.P95 <= 0 || math.IsInf(e.P95, 1) {
			t.Fatalf("%s: P95 %v", e.Label, e.P95)
		}
	}
	if _, err := NewDeadlineReport(m, -5, tS, 2, tM, p, ev.Parallel); err == nil {
		t.Fatal("negative deadline should fail")
	}
	if _, err := NewDeadlineReport(m, 600, tS, 0, tM, p, ev.Parallel); err == nil {
		t.Fatal("collection size 0 should fail")
	}

	// Cross-check one quantile against Monte Carlo.
	rng := rand.New(rand.NewSource(91))
	sim, err := SimulateSingle(context.Background(), m, tS, 60000, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = sim
	met := 0
	for i := 0; i < 60000; i++ {
		j := 0.0
		for {
			l := m.Sample(rng)
			if l < tS {
				j += l
				break
			}
			j += tS
		}
		if j <= 600 {
			met++
		}
	}
	mc := float64(met) / 60000
	if math.Abs(mc-rep.Single.Probability) > 0.01 {
		t.Fatalf("deadline P analytic %v vs MC %v", rep.Single.Probability, mc)
	}
}
