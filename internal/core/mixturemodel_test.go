package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"gridstrat/internal/trace"
)

func weekModel(t *testing.T, name string) (*EmpiricalModel, int) {
	t.Helper()
	spec, err := trace.LookupDataset(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ModelFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return m, len(tr.Latencies())
}

func TestMixtureModelValidation(t *testing.T) {
	m1, _ := weekModel(t, "2007-51")
	if _, err := NewMixtureModel(nil, nil); err == nil {
		t.Fatal("empty mixture should fail")
	}
	if _, err := NewMixtureModel([]Model{m1}, []float64{0}); err == nil {
		t.Fatal("zero weight should fail")
	}
	if _, err := NewMixtureModel([]Model{m1, nil}, []float64{1, 1}); err == nil {
		t.Fatal("nil model should fail")
	}
	if _, err := NewMixtureModel([]Model{m1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestMixtureModelPoolsCorrectly(t *testing.T) {
	// A mixture of two weeks weighted by completed-probe counts must
	// match the model built from the merged trace.
	specA, _ := trace.LookupDataset("2007-51")
	specB, _ := trace.LookupDataset("2007-52")
	trA, err := trace.Synthesize(specA)
	if err != nil {
		t.Fatal(err)
	}
	trB, err := trace.Synthesize(specB)
	if err != nil {
		t.Fatal(err)
	}
	mA, err := ModelFromTrace(trA)
	if err != nil {
		t.Fatal(err)
	}
	mB, err := ModelFromTrace(trB)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := trace.Merge("pool", trA, trB)
	if err != nil {
		t.Fatal(err)
	}
	mPool, err := ModelFromTrace(merged)
	if err != nil {
		t.Fatal(err)
	}

	// Weight by terminal probe counts (completed + outliers), which is
	// what pooling the raw records does.
	wA := float64(trA.Len())
	wB := float64(trB.Len())
	mix, err := NewMixtureModel([]Model{mA, mB}, []float64{wA, wB})
	if err != nil {
		t.Fatal(err)
	}
	if mix.Regimes() != 2 {
		t.Fatalf("%d regimes", mix.Regimes())
	}
	for _, x := range []float64{150, 300, 600, 1500, 5000} {
		got, want := mix.Ftilde(x), mPool.Ftilde(x)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("F̃(%v): mixture %v vs pooled %v", x, got, want)
		}
	}
	// EJ agreement within quadrature + pooling tolerance.
	for _, T := range []float64{400, 800} {
		got, want := EJSingle(mix, T), EJSingle(mPool, T)
		if math.Abs(got-want) > 0.02*want {
			t.Errorf("EJ(%v): mixture %v vs pooled %v", T, got, want)
		}
	}
}

func TestMixtureModelStrategiesRun(t *testing.T) {
	mA, _ := weekModel(t, "2007-51")
	mB, _ := weekModel(t, "2008-03")
	mix, err := NewMixtureModel([]Model{mA, mB}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// The optimization-friendly path: discretize the mixture (exact
	// integrals), optimize there, then evaluate on the true mixture.
	disc, err := Discretize(mix, 4000)
	if err != nil {
		t.Fatal(err)
	}
	tInf, single, err := OptimizeSingle(context.Background(), disc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(single.EJ, 1) || tInf <= 0 {
		t.Fatal("single optimization failed on discretized mixture")
	}
	// Discretization preserves the strategy values: evaluate on the
	// quadrature-backed mixture at the optimized parameters.
	if got := EJSingle(mix, tInf); math.Abs(got-single.EJ) > 0.01*single.EJ {
		t.Fatalf("discretized EJ %v vs mixture EJ %v", single.EJ, got)
	}

	if multi := EJMultiple(mix, 3, tInf); !(multi < single.EJ) {
		t.Fatal("b=3 should beat single on mixture")
	}

	p, delayed, err := OptimizeDelayed(context.Background(), disc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(delayed.EJ < single.EJ) {
		t.Fatal("delayed should beat single on mixture")
	}
	// MC validation against the true mixture model.
	rng := rand.New(rand.NewSource(93))
	sim, err := SimulateDelayed(context.Background(), mix, p, 60000, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sim.EJ-delayed.EJ) > math.Max(6*sim.StdErr, 0.01*delayed.EJ) {
		t.Fatalf("mixture MC %v ± %v vs discretized analytic %v", sim.EJ, sim.StdErr, delayed.EJ)
	}
}

func TestDiscretizeAccuracy(t *testing.T) {
	// Discretizing an empirical model reproduces its integrals.
	m, _ := weekModel(t, "2007-52")
	disc, err := Discretize(m, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(disc.Rho()-m.Rho()) > 1e-12 {
		t.Fatalf("rho drifted: %v vs %v", disc.Rho(), m.Rho())
	}
	for _, T := range []float64{300, 700, 2000} {
		a, b := EJSingle(m, T), EJSingle(disc, T)
		if math.Abs(a-b) > 0.01*a {
			t.Fatalf("EJ(%v): %v vs discretized %v", T, a, b)
		}
	}
	p := DelayedParams{T0: 300, TInf: 450}
	a, b := EJDelayed(m, p), EJDelayed(disc, p)
	if math.Abs(a-b) > 0.01*a {
		t.Fatalf("delayed EJ: %v vs discretized %v", a, b)
	}
	if _, err := Discretize(m, 1); err == nil {
		t.Fatal("n=1 should fail")
	}
}

func TestMixtureSamplingWeights(t *testing.T) {
	mA, _ := weekModel(t, "2007-51")
	mB, _ := weekModel(t, "2008-01")
	mix, err := NewMixtureModel([]Model{mA, mB}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	// ρ of the mixture is the weighted ρ.
	want := 0.75*mA.Rho() + 0.25*mB.Rho()
	if math.Abs(mix.Rho()-want) > 1e-12 {
		t.Fatalf("mixture rho %v, want %v", mix.Rho(), want)
	}
	// Sampled outlier fraction matches.
	rng := rand.New(rand.NewSource(95))
	inf := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if math.IsInf(mix.Sample(rng), 1) {
			inf++
		}
	}
	if math.Abs(float64(inf)/n-want) > 0.01 {
		t.Fatalf("sampled rho %v, want %v", float64(inf)/n, want)
	}
}

func TestEvaluateAcrossRegimes(t *testing.T) {
	mA, _ := weekModel(t, "2007-51")
	mB, _ := weekModel(t, "2008-03")
	mix, err := NewMixtureModel([]Model{mA, mB}, []float64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	p := DelayedParams{T0: 300, TInf: 450}
	regimes, avg, err := EvaluateAcrossRegimes(mix, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(regimes) != 2 {
		t.Fatalf("%d regimes", len(regimes))
	}
	want := regimes[0].Weight*regimes[0].EJ + regimes[1].Weight*regimes[1].EJ
	if math.Abs(avg-want) > 1e-9 {
		t.Fatalf("average %v, want %v", avg, want)
	}
	// The per-regime average differs from the mixture-law EJ when the
	// regimes differ (a job resubmitted inside one regime stays in it,
	// vs. re-drawing the regime each attempt under the mixture law).
	mixEJ := EJDelayed(mix, p)
	if math.IsInf(mixEJ, 1) {
		t.Fatal("mixture EJ diverged")
	}
	if _, _, err := EvaluateAcrossRegimes(mix, DelayedParams{T0: -1, TInf: 3}); err == nil {
		t.Fatal("invalid params should fail")
	}
}
