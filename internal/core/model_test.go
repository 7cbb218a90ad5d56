package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"gridstrat/internal/stats"
	"gridstrat/internal/trace"
)

// testEmpirical builds a moderate-size empirical model from the
// calibrated 2006-IX synthetic dataset.
func testEmpirical(t testing.TB) *EmpiricalModel {
	t.Helper()
	spec, err := trace.LookupDataset("2006-IX")
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
	return m
}

// testParametric builds an analytic heavy-tailed model: shifted
// lognormal latencies with 5% outliers.
func testParametric(t testing.TB) *ParametricModel {
	t.Helper()
	d := stats.NewShifted(stats.LogNormalFromMoments(450, 800), 120)
	m, err := NewParametricModel(stats.NewTruncatedAbove(d, 10000), 0.05, 10000)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelConstructorsValidate(t *testing.T) {
	e := stats.MustECDF([]float64{1, 2, 3})
	if _, err := NewEmpiricalModel(nil, 0.1, 100); err == nil {
		t.Fatal("nil ECDF should fail")
	}
	if _, err := NewEmpiricalModel(e, -0.1, 100); err == nil {
		t.Fatal("negative rho should fail")
	}
	if _, err := NewEmpiricalModel(e, 1.0, 100); err == nil {
		t.Fatal("rho=1 should fail")
	}
	if _, err := NewEmpiricalModel(e, 0.1, 0); err == nil {
		t.Fatal("zero timeout should fail")
	}
	if _, err := NewParametricModel(nil, 0.1, 100); err == nil {
		t.Fatal("nil distribution should fail")
	}
	if _, err := NewParametricModel(stats.NewExponential(1), 2, 100); err == nil {
		t.Fatal("rho=2 should fail")
	}
}

func TestModelFromTraceErrors(t *testing.T) {
	allOut := &trace.Trace{Name: "dead", Timeout: 100, Records: []trace.ProbeRecord{
		{ID: 0, Latency: 100, Status: trace.StatusOutlier},
	}}
	if _, err := ModelFromTrace(allOut); err == nil {
		t.Fatal("trace with no completions should fail")
	}
}

func TestFtildeShape(t *testing.T) {
	m := testEmpirical(t)
	if m.Ftilde(-1) != 0 {
		t.Fatal("F̃ below support should be 0")
	}
	top := m.Ftilde(m.UpperBound())
	if math.Abs(top-(1-m.Rho())) > 1e-12 {
		t.Fatalf("F̃ saturates at %v, want 1-ρ = %v", top, 1-m.Rho())
	}
	prev := -1.0
	for x := 0.0; x <= m.UpperBound(); x += 97.3 {
		v := m.Ftilde(x)
		if v < prev || v < 0 || v > 1 {
			t.Fatalf("F̃ not monotone/bounded at %v", x)
		}
		prev = v
	}
}

func TestEmpiricalIntegralsMatchParametricLimit(t *testing.T) {
	// A huge sample from the parametric model must reproduce its
	// integrals to sampling accuracy.
	pm := testParametric(t)
	rng := rand.New(rand.NewSource(42))
	sample := make([]float64, 120000)
	for i := range sample {
		sample[i] = pm.Distribution().Rand(rng)
	}
	e := stats.MustECDF(sample)
	em, err := NewEmpiricalModel(e, pm.Rho(), pm.UpperBound())
	if err != nil {
		t.Fatal(err)
	}
	for _, T := range []float64{300, 600, 1500} {
		for _, b := range []int{1, 3} {
			got := em.IntOneMinusFPow(T, b)
			want := pm.IntOneMinusFPow(T, b)
			if math.Abs(got-want) > 0.02*want {
				t.Errorf("∫(1-F̃)^%d to %v: empirical %v vs parametric %v", b, T, got, want)
			}
		}
		got := em.IntProdOneMinusF(T, 200)
		want := pm.IntProdOneMinusF(T, 200)
		if math.Abs(got-want) > 0.02*want {
			t.Errorf("∫prod to %v: empirical %v vs parametric %v", T, got, want)
		}
		gotU := em.IntUProdOneMinusF(T, 200)
		wantU := pm.IntUProdOneMinusF(T, 200)
		if math.Abs(gotU-wantU) > 0.03*wantU {
			t.Errorf("∫u·prod to %v: empirical %v vs parametric %v", T, gotU, wantU)
		}
	}
}

func TestEJSingleExponentialClosedForm(t *testing.T) {
	// For exponential latencies with rate λ and outlier ratio ρ, Eq. 1
	// has the closed form
	//   EJ(t∞) = [ t∞·ρ̄q + (1-ρ̄)t∞ + ρ̄(1-e^{-λt∞})/λ ... ]
	// computed here directly by quadrature-free algebra:
	//   ∫₀^T (1-F̃) = ∫₀^T (ρ + (1-ρ)e^{-λu}) du = ρT + (1-ρ)(1-e^{-λT})/λ.
	lambda := 1.0 / 500
	rho := 0.1
	m, err := NewParametricModel(stats.NewExponential(lambda), rho, 20000)
	if err != nil {
		t.Fatal(err)
	}
	for _, T := range []float64{250, 800, 3000} {
		integral := rho*T + (1-rho)*(1-math.Exp(-lambda*T))/lambda
		ftilde := (1 - rho) * (1 - math.Exp(-lambda*T))
		want := integral / ftilde
		got := EJSingle(m, T)
		if math.Abs(got-want) > 1e-6*want {
			t.Errorf("EJ(%v) = %v, want %v", T, got, want)
		}
	}
}

func TestEJSingleNoOutliersInfiniteTimeoutIsMean(t *testing.T) {
	// With ρ=0 and t∞ → ∞, every job eventually runs: EJ = E[R].
	d := stats.NewGamma(2, 0.004) // mean 500
	m, err := NewParametricModel(d, 0, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	got := EJSingle(m, 1e6)
	if math.Abs(got-d.Mean()) > 0.001*d.Mean() {
		t.Fatalf("EJ(∞) = %v, want mean %v", got, d.Mean())
	}
	// And σJ approaches σR.
	gotS := SigmaSingle(m, 1e6)
	if math.Abs(gotS-stats.Std(d)) > 0.005*stats.Std(d) {
		t.Fatalf("σJ(∞) = %v, want σR %v", gotS, stats.Std(d))
	}
}

func TestEJMultipleReducesToSingle(t *testing.T) {
	m := testEmpirical(t)
	for _, T := range []float64{200, 500, 1500} {
		if EJMultiple(m, 1, T) != EJSingle(m, T) {
			t.Fatalf("b=1 does not reduce to single at %v", T)
		}
		if SigmaMultiple(m, 1, T) != SigmaSingle(m, T) {
			t.Fatalf("σ b=1 mismatch at %v", T)
		}
	}
}

func TestEJMultipleMonotoneInB(t *testing.T) {
	m := testEmpirical(t)
	// At any fixed timeout, more copies can only help.
	for _, T := range []float64{300, 600, 1200} {
		prev := math.Inf(1)
		for b := 1; b <= 12; b++ {
			ej := EJMultiple(m, b, T)
			if ej > prev+1e-9 {
				t.Fatalf("EJ(b=%d, t∞=%v) = %v rose above %v", b, T, ej, prev)
			}
			prev = ej
		}
	}
	// And the optimized EJ is monotone too, with shrinking σ.
	prevEJ, prevSigma := math.Inf(1), math.Inf(1)
	for b := 1; b <= 10; b++ {
		_, ev, err := OptimizeMultiple(context.Background(), m, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ev.EJ > prevEJ+1e-9 {
			t.Fatalf("optimal EJ not monotone at b=%d: %v > %v", b, ev.EJ, prevEJ)
		}
		if b >= 2 && ev.Sigma > prevSigma+1e-9 {
			t.Fatalf("optimal σJ not shrinking at b=%d: %v > %v", b, ev.Sigma, prevSigma)
		}
		prevEJ, prevSigma = ev.EJ, ev.Sigma
	}
}

func TestEJInvalidInputs(t *testing.T) {
	m := testEmpirical(t)
	if !math.IsInf(EJSingle(m, 0), 1) || !math.IsInf(EJSingle(m, -10), 1) {
		t.Fatal("non-positive timeout should give +Inf")
	}
	// Timeout below the smallest latency: no success probability.
	if !math.IsInf(EJSingle(m, 1e-9), 1) {
		t.Fatal("timeout below support should give +Inf")
	}
	if !math.IsInf(SigmaMultiple(m, 3, 0), 1) {
		t.Fatal("σ at zero timeout should be +Inf")
	}
	if !math.IsInf(EJMultiple(m, 0, 100), 1) {
		t.Fatal("b < 1 should give +Inf")
	}
	if !math.IsInf(SigmaMultiple(m, -1, 100), 1) {
		t.Fatal("b < 1 should give +Inf σ")
	}
	if MultipleCDF(m, 0, 100) != nil {
		t.Fatal("b < 1 should give a nil CDF")
	}
	mustPanicCore(t, func() { MultipleCurve(m, 2, -1, 10) })
	mustPanicCore(t, func() { MultipleCurve(m, 2, 100, 1) })
}

func TestMultipleCurveShape(t *testing.T) {
	m := testEmpirical(t)
	ts, ej := MultipleCurve(m, 3, 2000, 50)
	if len(ts) != 50 || len(ej) != 50 {
		t.Fatal("curve length mismatch")
	}
	// The curve must dip below its right endpoint somewhere (a finite
	// optimal timeout exists for heavy-tailed latencies).
	min := math.Inf(1)
	for _, v := range ej {
		if v < min {
			min = v
		}
	}
	if !(min < ej[len(ej)-1]) {
		t.Fatal("no interior minimum found on EJ curve")
	}
}

func TestSingleMCMatchesAnalytic(t *testing.T) {
	m := testEmpirical(t)
	rng := rand.New(rand.NewSource(7))
	tInf := 500.0
	want := EJSingle(m, tInf)
	sim, err := SimulateSingle(context.Background(), m, tInf, 150000, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sim.EJ-want) > 5*sim.StdErr {
		t.Fatalf("MC EJ %v ± %v vs analytic %v", sim.EJ, sim.StdErr, want)
	}
	wantSigma := SigmaSingle(m, tInf)
	if math.Abs(sim.Sigma-wantSigma) > 0.03*wantSigma {
		t.Fatalf("MC σ %v vs analytic %v", sim.Sigma, wantSigma)
	}
	// Expected submissions per task is 1/F̃(t∞) (geometric).
	wantSubs := 1 / m.Ftilde(tInf)
	if math.Abs(sim.MeanSubmissions-wantSubs) > 0.05*wantSubs {
		t.Fatalf("MC submissions %v vs analytic %v", sim.MeanSubmissions, wantSubs)
	}
}

func TestMultipleMCMatchesAnalytic(t *testing.T) {
	m := testParametric(t)
	rng := rand.New(rand.NewSource(8))
	for _, b := range []int{2, 5} {
		tInf := 700.0
		want := EJMultiple(m, b, tInf)
		sim, err := SimulateMultiple(context.Background(), m, b, tInf, 60000, rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sim.EJ-want) > 5*sim.StdErr {
			t.Fatalf("b=%d: MC EJ %v ± %v vs analytic %v", b, sim.EJ, sim.StdErr, want)
		}
		wantSigma := SigmaMultiple(m, b, tInf)
		if math.Abs(sim.Sigma-wantSigma) > 0.05*wantSigma {
			t.Fatalf("b=%d: MC σ %v vs analytic %v", b, sim.Sigma, wantSigma)
		}
	}
}

func TestSimulationInputErrors(t *testing.T) {
	m := testEmpirical(t)
	rng := rand.New(rand.NewSource(1))
	if _, err := SimulateSingle(context.Background(), m, 500, 0, rng, 1); err == nil {
		t.Fatal("zero runs should fail")
	}
	if _, err := SimulateSingle(context.Background(), m, 1e-9, 10, rng, 1); err != ErrNoSuccessMass {
		t.Fatal("zero success mass should fail")
	}
	if _, err := SimulateMultiple(context.Background(), m, 2, 1e-9, 10, rng, 1); err != ErrNoSuccessMass {
		t.Fatal("zero success mass should fail for multiple")
	}
	if _, err := SimulateDelayed(context.Background(), m, DelayedParams{T0: 100, TInf: 300}, 10, rng, 1); err == nil {
		t.Fatal("invalid delayed params should fail")
	}
}

func TestSampleOutlierFraction(t *testing.T) {
	m := testEmpirical(t)
	rng := rand.New(rand.NewSource(3))
	const n = 200000
	inf := 0
	for i := 0; i < n; i++ {
		if math.IsInf(m.Sample(rng), 1) {
			inf++
		}
	}
	got := float64(inf) / n
	if math.Abs(got-m.Rho()) > 0.005 {
		t.Fatalf("sampled outlier fraction %v vs ρ=%v", got, m.Rho())
	}
}

func mustPanicCore(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
