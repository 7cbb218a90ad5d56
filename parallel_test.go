package gridstrat

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWithParallelismValidation(t *testing.T) {
	m := refModel(t)
	for _, bad := range []int{0, -1, -100} {
		if _, err := NewPlanner(m, WithParallelism(bad)); err == nil {
			t.Fatalf("WithParallelism(%d) should fail", bad)
		}
	}
	for _, good := range []int{1, 2, 64} {
		if _, err := NewPlanner(m, WithParallelism(good)); err != nil {
			t.Fatalf("WithParallelism(%d): %v", good, err)
		}
	}
}

// TestPlannerParallelismInvariantQueries pins the determinism contract
// of the execution engine on the analytic path: every Planner query
// returns identical results at parallelism 1 and 8.
func TestPlannerParallelismInvariantQueries(t *testing.T) {
	if raceEnabled {
		t.Skip("determinism is asserted without -race; TestPlannerConcurrentUse carries the race coverage")
	}
	m := refModel(t)
	seq, err := NewPlanner(m, WithParallelism(1), WithDeadline(900))
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewPlanner(m, WithParallelism(8), WithDeadline(900))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := seq.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	r8, err := par.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r8 {
		t.Fatalf("Recommend: parallelism 1 gave %+v, 8 gave %+v", r1, r8)
	}
	c1, err := seq.RecommendCheapest()
	if err != nil {
		t.Fatal(err)
	}
	c8, err := par.RecommendCheapest()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c8 {
		t.Fatalf("RecommendCheapest: %+v vs %+v", c1, c8)
	}
	d1, err := seq.CompareDeadline()
	if err != nil {
		t.Fatal(err)
	}
	d8, err := par.CompareDeadline()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d8 {
		t.Fatalf("CompareDeadline: %+v vs %+v", d1, d8)
	}
}

// TestPlannerSimulateDeterministicAcrossParallelism pins the sharded
// Monte Carlo contract at the public surface: two Planners with the
// same seed, one sequential and one 8-way parallel, produce
// bit-identical simulation results.
func TestPlannerSimulateDeterministicAcrossParallelism(t *testing.T) {
	m := refModel(t)
	const runs = 20000
	strategies := []Strategy{
		Single{TInf: 500},
		Multiple{B: 3, TInf: 600},
		Delayed{T0: 339, TInf: 485},
	}
	for _, s := range strategies {
		seq, err := NewPlanner(m, WithParallelism(1), WithRand(rand.New(rand.NewSource(42))))
		if err != nil {
			t.Fatal(err)
		}
		par, err := NewPlanner(m, WithParallelism(8), WithRand(rand.New(rand.NewSource(42))))
		if err != nil {
			t.Fatal(err)
		}
		want, err := seq.Simulate(s, runs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Simulate(s, runs)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: parallelism 8 gave %+v, want %+v", s, got, want)
		}
		if math.IsNaN(want.EJ) || want.EJ <= 0 {
			t.Fatalf("%v: degenerate simulation %+v", s, want)
		}
	}
}

// TestPlannerConcurrentUse races Recommend, Rank, Simulate, Optimize
// and CompareDeadline against each other on one shared Planner — the
// concurrency contract `go test -race` must hold now that the memo
// cache and the rng draw are hit from worker pools.
func TestPlannerConcurrentUse(t *testing.T) {
	m := refModel(t)
	p, err := NewPlanner(m, WithParallelism(4), WithDeadline(900))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 32)
	for i := 0; i < 4; i++ {
		wg.Add(5)
		go func() {
			defer wg.Done()
			_, err := p.Recommend()
			errc <- err
		}()
		go func() {
			defer wg.Done()
			_, err := p.Rank()
			errc <- err
		}()
		go func() {
			defer wg.Done()
			_, err := p.Simulate(Multiple{B: 2, TInf: 600}, 8000)
			errc <- err
		}()
		go func() {
			defer wg.Done()
			_, _, err := p.Optimize(Single{})
			errc <- err
		}()
		go func() {
			defer wg.Done()
			_, err := p.CompareDeadline()
			errc <- err
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestMemoCacheRejectsNaN: the shared model keeps no per-query
// integral state, so NaN arguments (NaN != NaN, which once leaked dead
// memo entries) and repeated arguments alike go straight to the
// underlying model, once per query, with its answers unchanged.
func TestMemoCacheRejectsNaN(t *testing.T) {
	cm := &countingModel{Model: refModel(t)}
	p, err := NewPlanner(cm)
	if err != nil {
		t.Fatal(err)
	}
	mm, ok := p.Model().(*memoModel)
	if !ok {
		t.Fatalf("Planner model is %T, want *memoModel", p.Model())
	}
	same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	nan := math.NaN()
	for i := 0; i < 100; i++ {
		if !same(mm.IntOneMinusFPow(nan, 2), cm.Model.IntOneMinusFPow(nan, 2)) ||
			!same(mm.IntUOneMinusFPow(nan, 2), cm.Model.IntUOneMinusFPow(nan, 2)) ||
			!same(mm.IntProdOneMinusF(nan, 100), cm.Model.IntProdOneMinusF(nan, 100)) ||
			!same(mm.IntProdOneMinusF(100, nan), cm.Model.IntProdOneMinusF(100, nan)) ||
			!same(mm.IntUProdOneMinusF(nan, nan), cm.Model.IntUProdOneMinusF(nan, nan)) {
			t.Fatal("shared model answered a NaN query differently from the underlying model")
		}
	}
	if n := atomic.LoadInt64(&cm.calls); n != 500 {
		t.Fatalf("500 NaN queries reached the underlying model %d times", n)
	}
	v1 := mm.IntProdOneMinusF(500, 100)
	v2 := mm.IntProdOneMinusF(500, 100)
	if v1 != v2 || v1 != cm.Model.IntProdOneMinusF(500, 100) {
		t.Fatalf("repeated query answered %v then %v", v1, v2)
	}
	if n := atomic.LoadInt64(&cm.prod); n != 202 {
		t.Fatalf("IntProdOneMinusF reached the underlying model %d times, want 202", n)
	}
}
