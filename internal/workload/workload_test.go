package workload

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"gridstrat/internal/core"
	"gridstrat/internal/trace"
)

func testModel(t testing.TB) core.Model {
	t.Helper()
	spec, err := trace.LookupDataset("2006-IX")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.ModelFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestApplicationValidate(t *testing.T) {
	bad := []Application{
		{Tasks: 0, WaveWidth: 10, Runtime: 1},
		{Tasks: 10, WaveWidth: 0, Runtime: 1},
		{Tasks: 10, WaveWidth: 5, Runtime: -1},
		{Tasks: 10, WaveWidth: 5, Runtime: math.NaN()},
	}
	for _, a := range bad {
		if a.Validate() == nil {
			t.Errorf("%+v should fail validation", a)
		}
	}
	a := Application{Tasks: 101, WaveWidth: 25, Runtime: 60}
	if a.Validate() != nil {
		t.Fatal("valid app rejected")
	}
	if a.Waves() != 5 {
		t.Fatalf("waves = %d", a.Waves())
	}
}

func TestMakespanSingleTaskReducesToEJ(t *testing.T) {
	m := testModel(t)
	s, err := SingleStrategy(m)
	if err != nil {
		t.Fatal(err)
	}
	a := Application{Tasks: 1, WaveWidth: 1, Runtime: 0}
	est, err := EstimateMakespan(a, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Makespan-s.EJ) > 0.01*s.EJ {
		t.Fatalf("1-task makespan %v vs EJ %v", est.Makespan, s.EJ)
	}
}

func TestMakespanGrowsWithWidthAndTasks(t *testing.T) {
	m := testModel(t)
	s, err := MultipleStrategy(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	base, err := EstimateMakespan(Application{Tasks: 100, WaveWidth: 50, Runtime: 60}, s)
	if err != nil {
		t.Fatal(err)
	}
	wider, err := EstimateMakespan(Application{Tasks: 100, WaveWidth: 100, Runtime: 60}, s)
	if err != nil {
		t.Fatal(err)
	}
	// Wider waves: fewer waves (1 vs 2) → smaller makespan despite the
	// slower slowest-task.
	if !(wider.Makespan < base.Makespan) {
		t.Fatalf("one wide wave %v should beat two waves %v", wider.Makespan, base.Makespan)
	}
	more, err := EstimateMakespan(Application{Tasks: 200, WaveWidth: 50, Runtime: 60}, s)
	if err != nil {
		t.Fatal(err)
	}
	if !(more.Makespan > base.Makespan) {
		t.Fatal("more tasks should take longer")
	}
}

func TestMakespanStrategyOrdering(t *testing.T) {
	m := testModel(t)
	a := Application{Tasks: 300, WaveWidth: 60, Runtime: 120}
	sSingle, err := SingleStrategy(m)
	if err != nil {
		t.Fatal(err)
	}
	sMulti, err := MultipleStrategy(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	sDelayed, err := DelayedStrategy(m)
	if err != nil {
		t.Fatal(err)
	}
	ests, err := Compare(a, sSingle, sMulti, sDelayed)
	if err != nil {
		t.Fatal(err)
	}
	single, multi, delayed := ests[0], ests[1], ests[2]
	// Order statistics amplify tail differences: 5-fold submission
	// must dominate, delayed sits between.
	if !(multi.Makespan < delayed.Makespan && delayed.Makespan < single.Makespan) {
		t.Fatalf("ordering violated: single %v delayed %v multiple %v",
			single.Makespan, delayed.Makespan, multi.Makespan)
	}
	// Load accounting.
	if multi.GridLoad != 5*60 {
		t.Fatalf("grid load %v", multi.GridLoad)
	}
	if single.GridLoad != 60 {
		t.Fatalf("grid load %v", single.GridLoad)
	}
}

func TestMakespanMatchesMonteCarlo(t *testing.T) {
	m := testModel(t)
	b := 3
	tInf, _, err := core.OptimizeMultiple(context.Background(), m, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := MultipleStrategy(m, b)
	if err != nil {
		t.Fatal(err)
	}
	a := Application{Tasks: 40, WaveWidth: 40, Runtime: 0}
	est, err := EstimateMakespan(a, s)
	if err != nil {
		t.Fatal(err)
	}
	// Monte Carlo: max of 40 i.i.d. multiple-submission latencies.
	rng := rand.New(rand.NewSource(71))
	const reps = 4000
	var sum float64
	for r := 0; r < reps; r++ {
		maxJ := 0.0
		for k := 0; k < 40; k++ {
			j := 0.0
			for {
				best := math.Inf(1)
				for c := 0; c < b; c++ {
					if l := m.Sample(rng); l < best {
						best = l
					}
				}
				if best < tInf {
					j += best
					break
				}
				j += tInf
			}
			if j > maxJ {
				maxJ = j
			}
		}
		sum += maxJ
	}
	mc := sum / reps
	if math.Abs(est.Makespan-mc) > 0.03*mc {
		t.Fatalf("analytic wave makespan %v vs MC %v", est.Makespan, mc)
	}
}

func TestSmallestMeetingDeadline(t *testing.T) {
	m := testModel(t)
	a := Application{Tasks: 500, WaveWidth: 100, Runtime: 120}
	// A generous deadline: b=1 qualifies.
	b, est, err := SmallestMeetingDeadline(m, a, 1e7, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b != 1 {
		t.Fatalf("generous deadline picked b=%d", b)
	}
	// A tight but feasible deadline needs replication.
	tight := est.Makespan / 3
	b2, est2, err := SmallestMeetingDeadline(m, a, tight, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b2 <= 1 {
		t.Fatalf("tight deadline picked b=%d", b2)
	}
	if est2.Makespan > tight {
		t.Fatalf("estimate %v misses deadline %v", est2.Makespan, tight)
	}
	// An impossible deadline returns 0.
	b3, _, err := SmallestMeetingDeadline(m, a, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b3 != 0 {
		t.Fatalf("impossible deadline picked b=%d", b3)
	}
	// Input validation.
	if _, _, err := SmallestMeetingDeadline(m, a, -1, 10); err == nil {
		t.Fatal("negative deadline should fail")
	}
	if _, _, err := SmallestMeetingDeadline(m, Application{}, 100, 10); err == nil {
		t.Fatal("invalid app should fail")
	}
}

func TestEstimateErrors(t *testing.T) {
	if _, err := EstimateMakespan(Application{}, Strategy{}); err == nil {
		t.Fatal("invalid app should fail")
	}
	if _, err := EstimateMakespan(Application{Tasks: 1, WaveWidth: 1}, Strategy{Name: "x"}); err == nil {
		t.Fatal("nil CDF should fail")
	}
}
