package gridstrat

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func refModel(t testing.TB) *EmpiricalModel {
	t.Helper()
	tr, err := SynthesizeDataset("2006-IX")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ModelFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPublicAPISurface(t *testing.T) {
	if len(PaperDatasets()) != 12 {
		t.Fatalf("%d paper datasets", len(PaperDatasets()))
	}
	tr, err := SynthesizeDataset("2007-51")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "2007-51" || tr.Timeout != DefaultTimeout {
		t.Fatalf("bad trace header %q %v", tr.Name, tr.Timeout)
	}
	if _, err := SynthesizeDataset("nope"); err == nil {
		t.Fatal("unknown dataset should fail")
	}

	set, err := SynthesizeAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Traces) != 13 {
		t.Fatalf("%d traces in set", len(set.Traces))
	}
}

func TestPublicRoundTrips(t *testing.T) {
	tr, err := SynthesizeDataset("2008-01")
	if err != nil {
		t.Fatal(err)
	}
	var csv, js bytes.Buffer
	if err := WriteTraceCSV(&csv, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceJSON(&js, tr); err != nil {
		t.Fatal(err)
	}
	a, err := ReadTraceCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadTraceJSON(&js)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != tr.Len() || b.Len() != tr.Len() {
		t.Fatal("round trips lost records")
	}
}

func TestPublicStrategyPipeline(t *testing.T) {
	m := refModel(t)
	s, single, err := Single{}.Optimize(m)
	if err != nil {
		t.Fatal(err)
	}
	tInf := s.Params().TInf
	if tInf <= 0 || single.EJ <= 0 {
		t.Fatalf("single optimization failed: %v %v", tInf, single.EJ)
	}
	if got := EJSingle(m, tInf); math.Abs(got-single.EJ) > 1e-9 {
		t.Fatal("EJSingle disagrees with optimizer")
	}
	if SigmaSingle(m, tInf) <= 0 {
		t.Fatal("σ must be positive")
	}
	_, mult, err := Multiple{B: 4}.Optimize(m)
	if err != nil {
		t.Fatal(err)
	}
	if !(mult.EJ < single.EJ) {
		t.Fatal("b=4 should beat single")
	}
	d, del, err := Delayed{}.Optimize(m)
	if err != nil {
		t.Fatal(err)
	}
	p := d.(Delayed).DelayedParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !(del.EJ < single.EJ) {
		t.Fatal("delayed should beat single")
	}
	ev, err := DelayedEvaluate(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.EJ-del.EJ) > 1e-9 {
		t.Fatal("DelayedEvaluate disagrees with optimizer")
	}
	if np := NParallelExpected(m, p); math.Abs(np-ev.Parallel) > 1e-9 {
		t.Fatal("NParallelExpected disagrees with evaluation")
	}
}

func TestPublicModelsFromLatenciesAndDistributions(t *testing.T) {
	m, err := NewEmpiricalModelFromLatencies([]float64{100, 200, 300, 400, 500}, 0.1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rho() != 0.1 {
		t.Fatalf("rho %v", m.Rho())
	}
	if _, err := NewEmpiricalModelFromLatencies(nil, 0.1, 1000); err == nil {
		t.Fatal("empty latencies should fail")
	}
	if _, err := NewEmpiricalModelFromLatencies([]float64{-1, 5, 9}, 0.1, 1000); err == nil {
		t.Fatal("negative latencies should fail")
	}
}

func TestPublicSimulators(t *testing.T) {
	m := refModel(t)
	rng := rand.New(rand.NewSource(5))
	sim, err := Single{TInf: 500}.Simulate(m, 20000, rng)
	if err != nil {
		t.Fatal(err)
	}
	want := EJSingle(m, 500)
	if math.Abs(sim.EJ-want) > 6*sim.StdErr {
		t.Fatalf("MC %v±%v vs analytic %v", sim.EJ, sim.StdErr, want)
	}
	if _, err := (Multiple{B: 3, TInf: 500}).Simulate(m, 5000, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := (Delayed{T0: 300, TInf: 450}).Simulate(m, 5000, rng); err != nil {
		t.Fatal(err)
	}
}

func TestPublicGridSimulator(t *testing.T) {
	g, err := NewGrid(DefaultGrid(8, 31))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunProbes(g, DefaultProbeConfig(200), "public")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 200 {
		t.Fatalf("%d probes", tr.Len())
	}
	if _, err := ModelFromTrace(tr); err != nil {
		t.Fatal(err)
	}
}

func TestRecommendBudgets(t *testing.T) {
	m := refModel(t)
	recommend := func(maxParallel float64) (Recommendation, error) {
		p, err := NewPlanner(m, WithMaxParallel(maxParallel))
		if err != nil {
			return Recommendation{}, err
		}
		return p.Recommend()
	}

	// Budget 1: only single qualifies (delayed needs N‖ > 1).
	r1, err := recommend(1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Strategy != StrategySingle {
		t.Fatalf("budget 1 picked %s", r1.Strategy)
	}
	if math.Abs(r1.Delta-1) > 1e-12 {
		t.Fatalf("single Δcost %v", r1.Delta)
	}

	// Budget 1.5: delayed fits, multiple (b=1) does not help.
	r15, err := recommend(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if r15.Strategy != StrategyDelayed {
		t.Fatalf("budget 1.5 picked %s", r15.Strategy)
	}
	if !(r15.Eval.EJ < r1.Eval.EJ) {
		t.Fatal("delayed should beat single under budget 1.5")
	}
	if r15.Eval.Parallel > 1.5 {
		t.Fatalf("budget violated: N‖ = %v", r15.Eval.Parallel)
	}

	// Budget 5: multiple wins on raw EJ.
	r5, err := recommend(5)
	if err != nil {
		t.Fatal(err)
	}
	if r5.Strategy != StrategyMultiple || r5.B != 5 {
		t.Fatalf("budget 5 picked %s b=%d", r5.Strategy, r5.B)
	}
	if !(r5.Eval.EJ < r15.Eval.EJ) {
		t.Fatal("multiple should beat delayed on EJ")
	}
	if !(r5.Delta > 1) {
		t.Fatal("multiple should cost more than single")
	}

	if _, err := recommend(0.5); err == nil {
		t.Fatal("budget < 1 should fail")
	}

	// Strings render.
	for _, r := range []Recommendation{r1, r15, r5} {
		if len(r.String()) == 0 || !strings.Contains(r.String(), "EJ=") {
			t.Fatalf("bad summary %q", r.String())
		}
	}
}

func TestRecommendCheapest(t *testing.T) {
	p, err := NewPlanner(refModel(t))
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.RecommendCheapest()
	if err != nil {
		t.Fatal(err)
	}
	// On 2006-IX the delayed strategy achieves Δcost < 1.
	if r.Strategy != StrategyDelayed {
		t.Fatalf("cheapest picked %s", r.Strategy)
	}
	if !(r.Delta < 1) {
		t.Fatalf("cheapest Δcost = %v", r.Delta)
	}
}

func TestExperimentsFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite is exercised in internal/experiments")
	}
	if raceEnabled {
		t.Skip("the full suite dominates the race build's runtime; the worker pool is race-checked by internal/experiments' TestRunAllWorkerPool")
	}
	c, err := NewExperiments()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteAllExperiments(c, dir, discard{}); err != nil {
		t.Fatal(err)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
