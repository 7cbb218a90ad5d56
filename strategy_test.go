package gridstrat

import (
	"math"
	"testing"
)

// TestStrategyOptimizeEvaluateRoundTrip checks that for every strategy
// family the evaluation returned by Optimize is reproduced exactly by
// re-evaluating the tuned strategy.
func TestStrategyOptimizeEvaluateRoundTrip(t *testing.T) {
	m := refModel(t)
	for _, s := range []Strategy{Single{}, Multiple{B: 3}, Delayed{}} {
		tuned, ev, err := s.Optimize(m)
		if err != nil {
			t.Fatalf("%v: %v", s.Name(), err)
		}
		if tuned.Name() != s.Name() {
			t.Fatalf("Optimize changed the family: %v -> %v", s.Name(), tuned.Name())
		}
		if !(tuned.Params().TInf > 0) {
			t.Fatalf("%v: tuned timeout %v", s.Name(), tuned.Params().TInf)
		}
		re, err := tuned.Evaluate(m)
		if err != nil {
			t.Fatalf("%v: re-evaluate: %v", s.Name(), err)
		}
		if math.Abs(re.EJ-ev.EJ) > 1e-9*math.Max(1, ev.EJ) {
			t.Fatalf("%v: EJ %v from Optimize, %v from Evaluate", s.Name(), ev.EJ, re.EJ)
		}
		if math.Abs(re.Sigma-ev.Sigma) > 1e-9*math.Max(1, ev.Sigma) {
			t.Fatalf("%v: σ %v from Optimize, %v from Evaluate", s.Name(), ev.Sigma, re.Sigma)
		}
		if math.Abs(re.Parallel-ev.Parallel) > 1e-9 {
			t.Fatalf("%v: N‖ %v from Optimize, %v from Evaluate", s.Name(), ev.Parallel, re.Parallel)
		}
	}
}

// TestStrategyParamsAndNames checks the identity surface of the three
// concrete types.
func TestStrategyParamsAndNames(t *testing.T) {
	cases := []struct {
		s    Strategy
		name StrategyName
		want StrategyParams
	}{
		{Single{TInf: 400}, StrategySingle, StrategyParams{TInf: 400}},
		{Multiple{B: 4, TInf: 500}, StrategyMultiple, StrategyParams{TInf: 500, B: 4}},
		{Delayed{T0: 200, TInf: 350}, StrategyDelayed, StrategyParams{TInf: 350, T0: 200}},
	}
	for _, c := range cases {
		if c.s.Name() != c.name {
			t.Fatalf("name %v, want %v", c.s.Name(), c.name)
		}
		if c.s.Params() != c.want {
			t.Fatalf("params %+v, want %+v", c.s.Params(), c.want)
		}
	}
	if got := Strategies(3); len(got) != 3 || got[1].Params().B != 3 {
		t.Fatalf("Strategies(3) = %v", got)
	}
}

// TestStrategyInvalidParams checks that invalid parameters surface as
// errors (not panics) everywhere on the new API.
func TestStrategyInvalidParams(t *testing.T) {
	m := refModel(t)
	rng := newRand(3)

	if _, err := (Single{}).Evaluate(m); err == nil {
		t.Fatal("unset single timeout should fail")
	}
	if _, err := (Multiple{B: 0, TInf: 100}).Evaluate(m); err == nil {
		t.Fatal("b=0 should fail")
	}
	if _, _, err := (Multiple{B: -2}).Optimize(m); err == nil {
		t.Fatal("optimizing b=-2 should fail")
	}
	if _, err := (Delayed{T0: 100, TInf: 50}).Evaluate(m); err == nil {
		t.Fatal("t∞ < t0 should fail")
	}
	if _, err := (Delayed{T0: 100, TInf: 300}).Evaluate(m); err == nil {
		t.Fatal("t∞ > 2·t0 should fail")
	}
	if cdf := (Single{}).CDF(m); cdf != nil {
		t.Fatal("CDF of unset single should be nil")
	}
	if cdf := (Multiple{B: 0, TInf: 100}).CDF(m); cdf != nil {
		t.Fatal("CDF of invalid multiple should be nil")
	}
	if cdf := (Delayed{T0: 100, TInf: 50}).CDF(m); cdf != nil {
		t.Fatal("CDF of invalid delayed should be nil")
	}
	if _, err := (Single{TInf: 400}).Simulate(m, 10, nil); err == nil {
		t.Fatal("nil rng should fail")
	}
	if _, err := (Multiple{B: 0, TInf: 100}).Simulate(m, 10, rng); err == nil {
		t.Fatal("simulating b=0 should fail")
	}
	compareDeadline := func(deadline float64, b int) error {
		p, err := NewPlanner(m, WithDeadline(deadline), WithCollectionSize(b))
		if err == nil {
			_, err = p.CompareDeadline()
		}
		return err
	}
	if err := compareDeadline(900, 0); err == nil {
		t.Fatal("CompareDeadline(b=0) should fail")
	}
	if err := compareDeadline(-5, 2); err == nil {
		t.Fatal("negative deadline should fail")
	}
}

// TestStrategyCDFMatchesFreeFunctions pins the Strategy CDFs to the
// legacy free-function CDFs.
func TestStrategyCDFMatchesFreeFunctions(t *testing.T) {
	m := refModel(t)
	pts := []float64{50, 300, 900, 2500, 8000}

	sc, lc := Single{TInf: 500}.CDF(m), SingleCDF(m, 500)
	mc, lm := Multiple{B: 3, TInf: 450}.CDF(m), MultipleCDF(m, 3, 450)
	dp := DelayedParams{T0: 250, TInf: 400}
	dc, ld := Delayed{T0: 250, TInf: 400}.CDF(m), DelayedCDF(m, dp)
	for _, x := range pts {
		if sc(x) != lc(x) || mc(x) != lm(x) || dc(x) != ld(x) {
			t.Fatalf("strategy CDF differs from free function at %v", x)
		}
	}
}

// TestStrategySimulateAgreesWithEvaluate is the Monte Carlo
// cross-check through the new interface.
func TestStrategySimulateAgreesWithEvaluate(t *testing.T) {
	m := refModel(t)
	rng := newRand(11)
	for _, s := range []Strategy{
		Single{TInf: 500},
		Multiple{B: 3, TInf: 500},
		Delayed{T0: 300, TInf: 450},
	} {
		ev, err := s.Evaluate(m)
		if err != nil {
			t.Fatalf("%v: %v", s.Name(), err)
		}
		sim, err := s.Simulate(m, 20000, rng)
		if err != nil {
			t.Fatalf("%v: %v", s.Name(), err)
		}
		if math.Abs(sim.EJ-ev.EJ) > 6*sim.StdErr {
			t.Fatalf("%v: MC %v±%v vs analytic %v", s.Name(), sim.EJ, sim.StdErr, ev.EJ)
		}
	}
}

// TestRecommendationAsStrategy checks the bridge from the advisor's
// flat Recommendation to typed strategies.
func TestRecommendationAsStrategy(t *testing.T) {
	cases := []struct {
		rec  Recommendation
		want Strategy
	}{
		{Recommendation{Strategy: StrategySingle, TInf: 400}, Single{TInf: 400}},
		{Recommendation{Strategy: StrategyMultiple, B: 3, TInf: 600}, Multiple{B: 3, TInf: 600}},
		{Recommendation{Strategy: StrategyDelayed, Delayed: DelayedParams{T0: 100, TInf: 180}}, Delayed{T0: 100, TInf: 180}},
	}
	for _, c := range cases {
		if got := c.rec.AsStrategy(); got != c.want {
			t.Fatalf("AsStrategy() = %#v, want %#v", got, c.want)
		}
	}
}
