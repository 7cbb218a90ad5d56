package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// pointMassModel is a degenerate latency law with all mass at zero:
// every job starts instantly. It is the regression fixture for the
// J = 0 division in the delayed simulator.
type pointMassModel struct{}

func (pointMassModel) Ftilde(t float64) float64 {
	if t > 0 {
		return 1
	}
	return 0
}
func (pointMassModel) Rho() float64                              { return 0 }
func (pointMassModel) UpperBound() float64                       { return 1000 }
func (pointMassModel) IntOneMinusFPow(T float64, b int) float64  { return 0 }
func (pointMassModel) IntUOneMinusFPow(T float64, b int) float64 { return 0 }
func (pointMassModel) IntProdOneMinusF(T, s float64) float64     { return 0 }
func (pointMassModel) IntUProdOneMinusF(T, s float64) float64    { return 0 }
func (pointMassModel) Sample(rng *rand.Rand) float64             { return 0 }

// TestSimulateDelayedZeroLatency is the regression test for the
// copySeconds/J division: with a point mass at zero every run has
// J = 0, which used to produce NaN MeanParallel poisoning the whole
// SimResult. The convention is N‖(0) = 1 (one copy, instantly
// started), matching NParallelGivenLatency.
func TestSimulateDelayedZeroLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r, err := SimulateDelayed(context.Background(), pointMassModel{}, DelayedParams{T0: 100, TInf: 150}, 5000, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"EJ": r.EJ, "Sigma": r.Sigma, "StdErr": r.StdErr,
		"MeanSubmissions": r.MeanSubmissions, "MeanParallel": r.MeanParallel,
	} {
		if math.IsNaN(v) {
			t.Fatalf("%s is NaN: %+v", name, r)
		}
	}
	if r.EJ != 0 || r.Sigma != 0 {
		t.Fatalf("point mass at 0 must give J ≡ 0, got %+v", r)
	}
	if r.MeanParallel != 1 {
		t.Fatalf("MeanParallel = %v, want 1 (one instantly-started copy)", r.MeanParallel)
	}
	if r.MeanSubmissions != 1 {
		t.Fatalf("MeanSubmissions = %v, want 1", r.MeanSubmissions)
	}
}

// bigMeanModel samples 1e9 ± 1 with equal probability: mean 1e9,
// standard deviation exactly 1. The naive sum²/n − mean² variance
// cancels catastrophically at this magnitude (double spacing at 1e18
// is 128) and used to report σ = 0.
type bigMeanModel struct{}

func (bigMeanModel) Ftilde(t float64) float64 {
	switch {
	case t <= 1e9-1:
		return 0
	case t <= 1e9+1:
		return 0.5
	default:
		return 1
	}
}
func (bigMeanModel) Rho() float64                              { return 0 }
func (bigMeanModel) UpperBound() float64                       { return 2e9 }
func (bigMeanModel) IntOneMinusFPow(T float64, b int) float64  { return 0 }
func (bigMeanModel) IntUOneMinusFPow(T float64, b int) float64 { return 0 }
func (bigMeanModel) IntProdOneMinusF(T, s float64) float64     { return 0 }
func (bigMeanModel) IntUProdOneMinusF(T, s float64) float64    { return 0 }
func (bigMeanModel) Sample(rng *rand.Rand) float64 {
	if rng.Float64() < 0.5 {
		return 1e9 - 1
	}
	return 1e9 + 1
}

// TestSimulateSigmaLargeMean is the regression test for the moment
// accumulation: Welford keeps σ ≈ 1 where the old sum-of-squares
// formula clamped it to 0.
func TestSimulateSigmaLargeMean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r, err := SimulateSingle(context.Background(), bigMeanModel{}, 1.5e9, 40000, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.EJ-1e9) > 1 {
		t.Fatalf("EJ = %v, want ~1e9", r.EJ)
	}
	if r.Sigma < 0.99 || r.Sigma > 1.01 {
		t.Fatalf("Sigma = %v, want ~1 (catastrophic cancellation regression)", r.Sigma)
	}
	if want := r.Sigma / math.Sqrt(40000); math.Abs(r.StdErr-want) > 1e-9 {
		t.Fatalf("StdErr = %v, want %v", r.StdErr, want)
	}
}

// TestMomentsWelford checks the accumulator against exact closed forms
// and the shard merge against one-pass accumulation.
func TestMomentsWelford(t *testing.T) {
	var a moments
	for i := 0; i < 1000; i++ {
		a.add(1e12 + float64(i%2)) // mean 1e12 + 0.5, variance 0.25
	}
	if math.Abs(a.mean-(1e12+0.5)) > 1e-6 {
		t.Fatalf("mean = %v", a.mean)
	}
	if v := a.variance(); math.Abs(v-0.25) > 1e-9 {
		t.Fatalf("variance = %v, want 0.25", v)
	}

	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 100
	}
	var whole moments
	for _, x := range xs {
		whole.add(x)
	}
	// Merge uneven shards in order; must agree with one-pass to fp
	// noise.
	var merged moments
	for lo := 0; lo < len(xs); {
		hi := lo + 1 + lo%7*100
		if hi > len(xs) {
			hi = len(xs)
		}
		var sh moments
		for _, x := range xs[lo:hi] {
			sh.add(x)
		}
		merged.merge(sh)
		lo = hi
	}
	if merged.n != whole.n {
		t.Fatalf("merged n = %d, want %d", merged.n, whole.n)
	}
	if math.Abs(merged.mean-whole.mean) > 1e-9*math.Abs(whole.mean) {
		t.Fatalf("merged mean %v vs one-pass %v", merged.mean, whole.mean)
	}
	if math.Abs(merged.variance()-whole.variance()) > 1e-9*whole.variance() {
		t.Fatalf("merged variance %v vs one-pass %v", merged.variance(), whole.variance())
	}
}

// TestSimulateDeterministicAcrossWorkers pins the sharding contract:
// for a fixed seed, every simulator returns bit-identical results no
// matter how many workers execute the shards (the decomposition and
// merge order depend only on the run count).
func TestSimulateDeterministicAcrossWorkers(t *testing.T) {
	m := testEmpirical(t)
	const runs = 3 * mcShardRuns / 2 * 4 // several shards, ragged tail
	ctx := context.Background()
	type simCase struct {
		name string
		run  func(workers int) (SimResult, error)
	}
	cases := []simCase{
		{"single", func(w int) (SimResult, error) {
			return SimulateSingle(ctx, m, 500, runs, rand.New(rand.NewSource(42)), w)
		}},
		{"multiple", func(w int) (SimResult, error) {
			return SimulateMultiple(ctx, m, 3, 600, runs, rand.New(rand.NewSource(42)), w)
		}},
		{"delayed", func(w int) (SimResult, error) {
			return SimulateDelayed(ctx, m, DelayedParams{T0: 339, TInf: 485}, runs, rand.New(rand.NewSource(42)), w)
		}},
	}
	for _, c := range cases {
		want, err := c.run(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 5, 8} {
			got, err := c.run(workers)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: workers=%d gave %+v, want %+v (workers=1)", c.name, workers, got, want)
			}
		}
	}
}

// TestSimulateShardedCancellation checks that a pre-cancelled context
// aborts the sharded simulators on both the sequential and the pooled
// path.
func TestSimulateShardedCancellation(t *testing.T) {
	m := testEmpirical(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := SimulateSingle(ctx, m, 500, 8*mcShardRuns, rand.New(rand.NewSource(1)), workers); err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}
