package stats

import (
	"math/rand"
	"testing"
)

// benchECDF is a trace-sized ECDF (the paper's weekly sets hold ~800
// probes; the pooled set ~11k).
func benchECDF(n int) *ECDF {
	rng := rand.New(rand.NewSource(1))
	sample := make([]float64, n)
	for i := range sample {
		sample[i] = rng.ExpFloat64()*450 + 30
	}
	return MustECDF(sample)
}

var benchSink float64

// --- The integral kernels ---

func BenchmarkKernelIntegralOneMinusFPow(b *testing.B) {
	e := benchECDF(2000)
	e.IntegralOneMinusFPow(500, 0.9, 5) // build the table outside the loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = e.IntegralOneMinusFPow(500, 0.9, 5)
	}
}

func BenchmarkKernelIntegralUOneMinusFPow(b *testing.B) {
	e := benchECDF(2000)
	e.IntegralUOneMinusFPow(500, 0.9, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = e.IntegralUOneMinusFPow(500, 0.9, 5)
	}
}

func BenchmarkKernelIntegralProdBoth(b *testing.B) {
	e := benchECDF(2000)
	for i := 0; i < b.N; i++ {
		p, u := e.IntegralProdBoth(200, 300, 0.9)
		benchSink = p + u
	}
}

func BenchmarkKernelIntegralProdSeparateWalks(b *testing.B) {
	e := benchECDF(2000)
	for i := 0; i < b.N; i++ {
		benchSink = e.IntegralProdOneMinusF(200, 300, 0.9) +
			e.IntegralUProdOneMinusF(200, 300, 0.9)
	}
}

// BenchmarkKernelBatchGrid answers a 400-point ascending grid — the
// shape of one optimizer refinement round — per iteration.
func BenchmarkKernelBatchGrid(b *testing.B) {
	e := benchECDF(2000)
	Ts := make([]float64, 400)
	for i := range Ts {
		Ts[i] = float64(i+1) * 25
	}
	e.IntegralOneMinusFPowBatch(Ts, 0.9, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := e.IntegralOneMinusFPowBatch(Ts, 0.9, 5)
		benchSink = out[len(out)-1]
	}
}

// BenchmarkKernelProdRatioGrid answers the plain cross terms of one
// delayed ratio's 401-point refinement grid (t in [240, 360], t∞ =
// 1.5·t) in one pass per iteration.
func BenchmarkKernelProdRatioGrid(b *testing.B) {
	e := benchECDF(2000)
	out := make([]float64, 401)
	e.IntegralProdRatioGrid(1.5, 240, 0.3, 0.9, out) // build the table outside the loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.IntegralProdRatioGrid(1.5, 240, 0.3, 0.9, out)
		benchSink = out[len(out)-1]
	}
}

// BenchmarkKernelProdRatioGridWalk answers the same grid with one
// cross-term walk per point.
func BenchmarkKernelProdRatioGridWalk(b *testing.B) {
	e := benchECDF(2000)
	for i := 0; i < b.N; i++ {
		for k := 0; k <= 400; k++ {
			t := 240 + float64(k)*0.3
			benchSink = e.IntegralProdOneMinusF(1.5*t-t, t, 0.9)
		}
	}
}

// --- The sampler: O(1) table vs the historical binary-search path ---

func BenchmarkECDFRand(b *testing.B) {
	e := benchECDF(2000)
	rng := rand.New(rand.NewSource(2))
	e.Rand(rng) // build the bucket table outside the loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = e.Rand(rng)
	}
}

func BenchmarkECDFRandQuantilePath(b *testing.B) {
	e := benchECDF(2000)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < b.N; i++ {
		benchSink = e.Quantile(rng.Float64())
	}
}
