package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDelayedParamsValidate(t *testing.T) {
	valid := []DelayedParams{
		{T0: 100, TInf: 150},
		{T0: 100, TInf: 200}, // t∞ = 2·t0 boundary allowed
		{T0: 1, TInf: 1.5},
	}
	for _, p := range valid {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v should validate: %v", p, err)
		}
	}
	invalid := []DelayedParams{
		{T0: 0, TInf: 100},
		{T0: -5, TInf: 100},
		{T0: 100, TInf: 100}, // t0 == t∞
		{T0: 100, TInf: 50},
		{T0: 100, TInf: 201}, // more than 2 copies
	}
	for _, p := range invalid {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v should be rejected", p)
		}
	}
	p := DelayedParams{T0: 200, TInf: 300}
	if math.Abs(p.Ratio()-1.5) > 1e-15 {
		t.Fatalf("ratio = %v", p.Ratio())
	}
}

func TestDelayedSurvivalBasics(t *testing.T) {
	m := testEmpirical(t)
	p := DelayedParams{T0: 300, TInf: 450}
	if DelayedSurvival(m, p, -5) != 1 || DelayedSurvival(m, p, 0) != 1 {
		t.Fatal("survival at t<=0 must be 1")
	}
	// First interval: exactly the single-job survival.
	for _, x := range []float64{50, 150, 299} {
		want := 1 - m.Ftilde(x)
		if got := DelayedSurvival(m, p, x); math.Abs(got-want) > 1e-15 {
			t.Fatalf("G(%v) = %v, want %v", x, got, want)
		}
	}
	// Monotone non-increasing and → 0.
	prev := 1.0
	for x := 0.0; x < 20*p.T0; x += 7.3 {
		g := DelayedSurvival(m, p, x)
		if g > prev+1e-12 || g < 0 {
			t.Fatalf("survival not monotone at %v: %v > %v", x, g, prev)
		}
		prev = g
	}
	if DelayedSurvival(m, p, 50*p.T0) > 1e-6 {
		t.Fatal("survival does not vanish")
	}
}

func TestDelayedSurvivalFirstPeriodProduct(t *testing.T) {
	// In [t0, t∞): exact two-copy race, G = (1-F̃(t))(1-F̃(t-t0)).
	m := testParametric(t)
	p := DelayedParams{T0: 300, TInf: 500}
	for _, x := range []float64{310, 400, 480} {
		want := (1 - m.Ftilde(x)) * (1 - m.Ftilde(x-p.T0))
		got := DelayedSurvival(m, p, x)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("G(%v) = %v, want %v", x, got, want)
		}
	}
	// In [t∞, 2t0): first copy canceled, G = q·(1-F̃(t-t0)).
	q := 1 - m.Ftilde(p.TInf)
	for _, x := range []float64{510, 580} {
		want := q * (1 - m.Ftilde(x-p.T0))
		got := DelayedSurvival(m, p, x)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("G(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestEJDelayedClosedFormMatchesStieltjes(t *testing.T) {
	// Two fully independent evaluation routes must agree: the
	// geometric-series closed form and the cell-mass expectation of
	// the identity function.
	for _, m := range []Model{testEmpirical(t), testParametric(t)} {
		for _, p := range []DelayedParams{
			{T0: 200, TInf: 280},
			{T0: 339, TInf: 485},
			{T0: 500, TInf: 990},
		} {
			closed := EJDelayed(m, p)
			stieltjes := expectDelayed(m, p, delayedExpectCells, func(l float64) float64 { return l })
			if math.Abs(closed-stieltjes) > 0.002*closed {
				t.Errorf("EJ routes disagree at %+v: closed %v vs stieltjes %v", p, closed, stieltjes)
			}
		}
	}
}

func TestDelayedMCMatchesAnalytic(t *testing.T) {
	m := testEmpirical(t)
	rng := rand.New(rand.NewSource(11))
	for _, p := range []DelayedParams{
		{T0: 250, TInf: 400},
		{T0: 339, TInf: 485},
	} {
		ev, err := DelayedEvaluate(m, p)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := SimulateDelayed(context.Background(), m, p, 120000, rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sim.EJ-ev.EJ) > 5*sim.StdErr {
			t.Fatalf("%+v: MC EJ %v ± %v vs analytic %v", p, sim.EJ, sim.StdErr, ev.EJ)
		}
		if math.Abs(sim.Sigma-ev.Sigma) > 0.05*ev.Sigma {
			t.Fatalf("%+v: MC σ %v vs analytic %v", p, sim.Sigma, ev.Sigma)
		}
		if math.Abs(sim.MeanParallel-ev.Parallel) > 0.02*ev.Parallel {
			t.Fatalf("%+v: MC N‖ %v vs analytic %v", p, sim.MeanParallel, ev.Parallel)
		}
	}
}

func TestDelayedImprovesOnSingle(t *testing.T) {
	// The paper's core claim: a well-tuned delayed strategy beats the
	// optimal single resubmission on heavy-tailed latency.
	m := testEmpirical(t)
	_, single, err := OptimizeSingle(context.Background(), m, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ev, err := OptimizeDelayed(context.Background(), m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(ev.EJ < single.EJ) {
		t.Fatalf("delayed optimum %v does not beat single %v", ev.EJ, single.EJ)
	}
	// ... while keeping fewer than 2 copies in flight.
	if ev.Parallel < 1 || ev.Parallel >= 2 {
		t.Fatalf("N‖ = %v outside [1, 2)", ev.Parallel)
	}
	// But multiple submission with b=2 beats delayed on raw EJ
	// (Figure 6's message).
	_, mult2, err := OptimizeMultiple(context.Background(), m, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(mult2.EJ < ev.EJ) {
		t.Fatalf("b=2 EJ %v should beat delayed %v", mult2.EJ, ev.EJ)
	}
}

func TestNParallelGivenLatencyCases(t *testing.T) {
	p := DelayedParams{T0: 300, TInf: 450}
	// n = 0: single copy.
	if NParallelGivenLatency(100, p) != 1 {
		t.Fatal("n=0 should be 1")
	}
	if NParallelGivenLatency(0, p) != 1 || NParallelGivenLatency(-3, p) != 1 {
		t.Fatal("degenerate l should be 1")
	}
	// n = 1, l < t∞: (t0 + 2(l-t0))/l at l=400: (300+200)/400 = 1.25.
	if got := NParallelGivenLatency(400, p); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("n=1 I0 case: %v", got)
	}
	// n = 1, l >= t∞: (t0 + 2(t∞-t0) + l-t∞)/l at l=500:
	// (300+300+50)/500 = 1.3.
	if got := NParallelGivenLatency(500, p); math.Abs(got-1.3) > 1e-12 {
		t.Fatalf("n=1 I1 case: %v", got)
	}
	// n = 2, I0: l=620: (300 + 450 + 2(620-600))/620 = 790/620.
	if got := NParallelGivenLatency(620, p); math.Abs(got-790.0/620) > 1e-12 {
		t.Fatalf("n=2 I0 case: %v", got)
	}
	// n = 2, I1: l=800: (300+450+300+(800-750))/800 = 1100/800.
	if got := NParallelGivenLatency(800, p); math.Abs(got-1100.0/800) > 1e-12 {
		t.Fatalf("n=2 I1 case: %v", got)
	}
}

func TestNParallelBoundsProperty(t *testing.T) {
	// Paper §6.1: N‖ ∈ [1, 2-1/(n+1)] and N‖ → t∞/t0 as l → ∞.
	f := func(rawT0, rawRatio, rawL float64) bool {
		t0 := 50 + math.Abs(math.Mod(rawT0, 1000))
		ratio := 1.001 + math.Abs(math.Mod(rawRatio, 0.998))
		p := DelayedParams{T0: t0, TInf: ratio * t0}
		l := math.Abs(math.Mod(rawL, 20*t0))
		if l == 0 {
			l = 1
		}
		n := math.Floor(l / t0)
		npar := NParallelGivenLatency(l, p)
		return npar >= 1-1e-9 && npar <= 2-1/(n+2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Asymptote: N‖(l → ∞) → t∞/t0.
	p := DelayedParams{T0: 200, TInf: 330}
	got := NParallelGivenLatency(1e9, p)
	if math.Abs(got-p.Ratio()) > 1e-3 {
		t.Fatalf("asymptotic N‖ = %v, want %v", got, p.Ratio())
	}
}

func TestEJDelayedPaperVariantBelowExact(t *testing.T) {
	// The paper's FJ over-counts success mass (the B term ignores that
	// copy n+1 is only submitted when copy n survived t0), so its CDF
	// dominates the exact law and its EJ is lower.
	m := testEmpirical(t)
	for _, p := range []DelayedParams{
		{T0: 250, TInf: 400},
		{T0: 339, TInf: 485},
		{T0: 450, TInf: 600},
	} {
		exact := EJDelayed(m, p)
		paper := EJDelayedPaper(m, p)
		if !(paper <= exact+1e-9) {
			t.Errorf("%+v: paper EJ %v above exact %v", p, paper, exact)
		}
		// The gap is moderate, not wild — both describe the same
		// strategy family.
		if paper < 0.5*exact {
			t.Errorf("%+v: paper EJ %v implausibly far below exact %v", p, paper, exact)
		}
	}
}

func TestEJDelayedPaperAgreesWhenFt0Vanishes(t *testing.T) {
	// The over-count term is ∝ F̃(t0): for t0 below the latency floor
	// both formulas coincide. Exponential from 0 has mass at any t>0,
	// so use a shifted law with a hard floor at 400 s.
	m, err := NewParametricModel(
		mustShift(t, 400), 0.0, 20000)
	if err != nil {
		t.Fatal(err)
	}
	p := DelayedParams{T0: 300, TInf: 550} // F̃(300) = 0, F̃(250)=0 too
	exact := EJDelayed(m, p)
	paper := EJDelayedPaper(m, p)
	if math.Abs(exact-paper) > 0.005*exact {
		t.Fatalf("with F̃(t0)=0 exact %v and paper %v must agree", exact, paper)
	}
}

func TestDelayedDegenerateInputs(t *testing.T) {
	m := testEmpirical(t)
	if !math.IsInf(EJDelayed(m, DelayedParams{T0: 100, TInf: 90}), 1) {
		t.Fatal("invalid params should give +Inf")
	}
	if !math.IsNaN(expectDelayed(m, DelayedParams{T0: -1, TInf: 2}, delayedExpectCells, func(float64) float64 { return 1 })) {
		t.Fatal("invalid params should give NaN expectation")
	}
	if _, err := DelayedEvaluate(m, DelayedParams{T0: 0, TInf: 1}); err == nil {
		t.Fatal("invalid params should error")
	}
	// Timeout below all support: diverges.
	p := DelayedParams{T0: 1e-7, TInf: 1.5e-7}
	if !math.IsInf(EJDelayed(m, p), 1) {
		t.Fatal("no-success params should give +Inf")
	}
	for _, ratio := range []float64{1.0, 2.5} {
		if _, _, err := OptimizeDelayedRatios(context.Background(), m, []float64{ratio}, 1); err == nil {
			t.Fatalf("ratio %v should error", ratio)
		}
	}
}

func TestOptimizeDelayedRatioBeatsSingleForGoodRatios(t *testing.T) {
	// Table 3: every ratio in (1, 2] yields EJ below the single
	// optimum on the 2006-IX-style trace.
	m := testEmpirical(t)
	_, single, err := OptimizeSingle(context.Background(), m, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratios := []float64{1.1, 1.25, 1.5, 1.8, 2.0}
	ps, evs, err := OptimizeDelayedRatios(context.Background(), m, ratios, 1)
	if err != nil {
		t.Fatal(err)
	}
	pars, err := DelayedParallels(context.Background(), m, ps, 1)
	if err != nil {
		t.Fatal(err)
	}
	for j, ratio := range ratios {
		p, ev := ps[j], evs[j]
		if math.Abs(p.Ratio()-ratio) > 1e-9 {
			t.Fatalf("ratio drifted: %v vs %v", p.Ratio(), ratio)
		}
		if !(ev.EJ < single.EJ) {
			t.Errorf("ratio %v: EJ %v not below single %v", ratio, ev.EJ, single.EJ)
		}
		if pars[j] < 1 || pars[j] > 1.5+1e-9 {
			t.Errorf("ratio %v: N‖ = %v outside [1, 1.5]", ratio, pars[j])
		}
	}
}

func TestExpectDelayedTotalMass(t *testing.T) {
	// E[1] must be 1: the strategy terminates almost surely.
	m := testEmpirical(t)
	p := DelayedParams{T0: 300, TInf: 450}
	got := expectDelayed(m, p, delayedExpectCells, func(float64) float64 { return 1 })
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("total mass %v", got)
	}
}

func mustShift(t *testing.T, floor float64) *shiftedExp {
	t.Helper()
	return &shiftedExp{floor: floor, rate: 1.0 / 300}
}

// shiftedExp is a minimal Distribution with a hard floor, used to test
// the F̃(t0)=0 regime.
type shiftedExp struct {
	floor, rate float64
}

func (s *shiftedExp) PDF(x float64) float64 {
	if x < s.floor {
		return 0
	}
	return s.rate * math.Exp(-s.rate*(x-s.floor))
}
func (s *shiftedExp) CDF(x float64) float64 {
	if x <= s.floor {
		return 0
	}
	return -math.Expm1(-s.rate * (x - s.floor))
}
func (s *shiftedExp) Quantile(p float64) float64 {
	if p <= 0 {
		return s.floor
	}
	if p >= 1 {
		return math.Inf(1)
	}
	return s.floor - math.Log1p(-p)/s.rate
}
func (s *shiftedExp) Rand(rng *rand.Rand) float64 {
	return s.floor + rng.ExpFloat64()/s.rate
}
func (s *shiftedExp) Mean() float64 { return s.floor + 1/s.rate }
func (s *shiftedExp) Var() float64  { return 1 / (s.rate * s.rate) }

// A NaN ratio fails every comparison, so it must not slip the range
// check: it is an error, never a result that could win an EJ
// comparison.
func TestOptimizeDelayedRatioNaN(t *testing.T) {
	m := testEmpirical(t)
	if ps, evs, err := OptimizeDelayedRatios(context.Background(), m, []float64{math.NaN()}, 1); err == nil {
		t.Fatalf("NaN ratio gave (%+v, %+v), want an error", ps, evs)
	}
}
