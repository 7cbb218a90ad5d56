package gridsim

import (
	"context"
	"math"
	"testing"

	"gridstrat/internal/core"
	"gridstrat/internal/trace"
)

func runCampaign(t *testing.T, total int, seed int64) *trace.Trace {
	t.Helper()
	g, err := New(DefaultGrid(16, seed))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunProbes(g, DefaultProbeConfig(total), "sim")
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunProbesProducesValidTrace(t *testing.T) {
	tr := runCampaign(t, 400, 11)
	if tr.Len() != 400 {
		t.Fatalf("got %d records", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	st := tr.ComputeStats()
	if st.Completed == 0 {
		t.Fatal("no probes completed")
	}
	// The middleware floor guarantees latencies are not trivially 0.
	if st.MeanBody < 50 {
		t.Fatalf("mean latency %v suspiciously small", st.MeanBody)
	}
	// Non-degenerate variability is the whole point of the substrate.
	if st.StdBody <= 0 {
		t.Fatal("zero latency variance")
	}
}

func TestRunProbesConservation(t *testing.T) {
	// Every probe terminates exactly once: records are unique and
	// total equals requested.
	tr := runCampaign(t, 300, 13)
	seen := map[int]bool{}
	for _, r := range tr.Records {
		if seen[r.ID] {
			t.Fatalf("probe %d recorded twice", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) != 300 {
		t.Fatalf("%d unique probes", len(seen))
	}
}

func TestRunProbesDeterministic(t *testing.T) {
	a := runCampaign(t, 150, 17)
	b := runCampaign(t, 150, 17)
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a.Records[i], b.Records[i])
		}
	}
}

func TestRunProbesConfigErrors(t *testing.T) {
	g, err := New(DefaultGrid(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunProbes(g, ProbeConfig{InFlight: 0, Total: 10, Timeout: 100}, "x"); err == nil {
		t.Fatal("zero in-flight should fail")
	}
	if _, err := RunProbes(g, ProbeConfig{InFlight: 5, Total: 0, Timeout: 100}, "x"); err == nil {
		t.Fatal("zero total should fail")
	}
	if _, err := RunProbes(g, ProbeConfig{InFlight: 5, Total: 10, Timeout: 0}, "x"); err == nil {
		t.Fatal("zero timeout should fail")
	}
}

func TestSimulatedTraceFeedsCoreModel(t *testing.T) {
	// End-to-end: DES trace → latency model → strategy optimization.
	tr := runCampaign(t, 600, 19)
	m, err := core.ModelFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	tInf, ev, err := core.OptimizeSingle(context.Background(), m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(ev.EJ, 1) || tInf <= 0 {
		t.Fatalf("optimization failed: t∞=%v EJ=%v", tInf, ev.EJ)
	}
	// Multiple submission must reduce expected latency on this trace.
	_, ev2, err := core.OptimizeMultiple(context.Background(), m, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(ev2.EJ < ev.EJ) {
		t.Fatalf("b=3 EJ %v not below single %v", ev2.EJ, ev.EJ)
	}
}

func TestStrategySpecValidation(t *testing.T) {
	cases := []StrategySpec{
		{Kind: StrategySingle, TInf: 0},
		{Kind: StrategyMultiple, TInf: 100, B: 0},
		{Kind: StrategyMultiple, TInf: 0, B: 2},
		{Kind: StrategyDelayed, Delayed: core.DelayedParams{T0: 10, TInf: 30}},
		{Kind: StrategyKind(9)},
	}
	for _, s := range cases {
		if s.Validate() == nil {
			t.Errorf("%+v should fail validation", s)
		}
	}
	good := []StrategySpec{
		{Kind: StrategySingle, TInf: 600},
		{Kind: StrategyMultiple, TInf: 600, B: 4},
		{Kind: StrategyDelayed, Delayed: core.DelayedParams{T0: 300, TInf: 450}},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v should validate: %v", s, err)
		}
	}
}

func TestRunStrategyAgainstLiveGrid(t *testing.T) {
	g, err := New(DefaultGrid(16, 23))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the grid up.
	g.Engine.Run(5000)

	single, err := RunStrategy(g, StrategySpec{Kind: StrategySingle, TInf: 2500}, 60, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if single.Tasks == 0 {
		t.Fatal("no single-strategy tasks completed")
	}
	if single.MeanJ <= 0 {
		t.Fatalf("mean J = %v", single.MeanJ)
	}
	if single.MeanSubmissions < 1 {
		t.Fatalf("submissions %v below 1", single.MeanSubmissions)
	}

	multi, err := RunStrategy(g, StrategySpec{Kind: StrategyMultiple, TInf: 2500, B: 4}, 60, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Tasks == 0 {
		t.Fatal("no multiple-strategy tasks completed")
	}
	// 4 copies per round: at least 4 submissions per task.
	if multi.MeanSubmissions < 4 {
		t.Fatalf("multiple submissions %v below b", multi.MeanSubmissions)
	}

	delayed, err := RunStrategy(g, StrategySpec{
		Kind:    StrategyDelayed,
		Delayed: core.DelayedParams{T0: 900, TInf: 1400},
	}, 60, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if delayed.Tasks == 0 {
		t.Fatal("no delayed-strategy tasks completed")
	}
	// N‖ of the delayed strategy lives in [1, 2).
	if delayed.MeanParallel < 1 || delayed.MeanParallel >= 2 {
		t.Fatalf("delayed N‖ = %v", delayed.MeanParallel)
	}
}

func TestRunStrategyInputErrors(t *testing.T) {
	g, err := New(DefaultGrid(4, 29))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunStrategy(g, StrategySpec{Kind: StrategySingle, TInf: 100}, 0, 10, 1); err == nil {
		t.Fatal("zero tasks should fail")
	}
	if _, err := RunStrategy(g, StrategySpec{Kind: StrategySingle, TInf: 100}, 5, 0, 1); err == nil {
		t.Fatal("zero rounds should fail")
	}
	if _, err := RunStrategy(g, StrategySpec{Kind: StrategySingle, TInf: -1}, 5, 5, 1); err == nil {
		t.Fatal("invalid spec should fail")
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := NewEngine()
	var pump func()
	count := 0
	pump = func() {
		count++
		if count < b.N {
			e.Schedule(1, pump)
		}
	}
	b.ResetTimer()
	e.Schedule(0, pump)
	e.Drain()
}

func BenchmarkProbeCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := New(DefaultGrid(16, int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := RunProbes(g, DefaultProbeConfig(200), "bench"); err != nil {
			b.Fatal(err)
		}
	}
}
