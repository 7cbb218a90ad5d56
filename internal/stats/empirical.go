package stats

import "math/rand"

// EmpiricalDistribution is the query surface the submission-strategy
// models actually consume: CDF evaluation, quantiles, bootstrap
// sampling, and the exact step-function integral kernels (scalar and
// batched), plus the warm-swap and memory-accounting hooks the serving
// layer drives. Two backends implement it — the exact counted ECDF and
// the mergeable quantile Sketch — so every layer above (core models,
// the Planner, the gridstratd registry) is representation-
// agnostic: demoting a model from exact to sketch swaps the backend
// without touching a single call site.
//
// (The name leaves Distribution to the parametric laws in
// distributions.go: an EmpiricalDistribution is data-driven, a
// Distribution is analytic.)
//
// Concurrency: implementations must be safe for concurrent use after
// construction — the Model contract the parallel optimizers and the
// server's lock-free query path rely on. Both in-repo backends are:
// their lazily built tables are mutex- or Once-guarded.
type EmpiricalDistribution interface {
	// N returns the (effective) sample size behind the distribution.
	N() int
	// Min and Max bound the support.
	Min() float64
	Max() float64
	// Eval returns F(x) = P(X <= x).
	Eval(x float64) float64
	// Quantile returns the generalized inverse CDF.
	Quantile(p float64) float64
	// SampleQuantile returns the type-7 interpolated sample quantile.
	SampleQuantile(p float64) float64
	// Mean and Std summarize the distribution.
	Mean() float64
	Std() float64
	// Rand draws one bootstrap sample.
	Rand(rng *rand.Rand) float64

	// The pow-integral kernels: ∫₀ᵀ (1-s·F)^b du and the u-weighted
	// companion, scalar and batched over an ascending grid.
	IntegralOneMinusFPow(T, s float64, b int) float64
	IntegralUOneMinusFPow(T, s float64, b int) float64
	IntegralOneMinusFPowBatch(Ts []float64, s float64, b int) []float64
	IntegralUOneMinusFPowBatch(Ts []float64, s float64, b int) []float64

	// The delayed cross-term kernels: ∫₀ᵀ (1-s·F(u+shift))·(1-s·F(u)) du
	// and friends, including the fused both-moments walks.
	IntegralProdOneMinusF(T, shift, s float64) float64
	IntegralUProdOneMinusF(T, shift, s float64) float64
	IntegralProdBoth(T, shift, s float64) (plain, uweighted float64)
	IntegralProdBothBatch(Ts []float64, shift, s float64) (plain, uweighted []float64)
	// IntegralProdRatioGrid answers the plain cross term along a
	// uniform t grid at T = (ratio-1)·t, shift = t, in one pass.
	IntegralProdRatioGrid(ratio, lo, h, s float64, out []float64)

	// MemBytes estimates the resident heap footprint: support arrays,
	// built prefix-sum tables, sampler table — the registry's byte
	// accounting reads it.
	MemBytes() int64

	// Warm-swap surface: the kernel manifest of an outgoing epoch and
	// the eager builders the ingest path hands it to.
	TableKeys() []TableKey
	Prewarm(keys []TableKey)
	PrewarmSampler()
	SamplerWarm() bool
}

// Compile-time checks: both backends satisfy the interface.
var (
	_ EmpiricalDistribution = (*ECDF)(nil)
	_ EmpiricalDistribution = (*Sketch)(nil)
)

// powKernelBytes is the per-support-point cost of one prefix-sum
// kernel (seg + pre + preU float64 entries).
const powKernelBytes = 3 * 8

// MemBytes estimates the ECDF's resident heap footprint: the support
// arrays (values, cumulative probabilities, counts), every built
// prefix-sum kernel (three float64 slices over the support each), and
// the O(1) sampler bucket table when built. Safe for concurrent use.
func (e *ECDF) MemBytes() int64 {
	b := int64(len(e.xs)+len(e.cum)) * 8
	b += int64(len(e.cnt)) * 8
	e.kmu.RLock()
	nk := len(e.kernels)
	e.kmu.RUnlock()
	b += int64(nk) * int64(len(e.xs)) * powKernelBytes
	if e.randBuilt.Load() {
		b += int64(len(e.randIdx)) * 4
	}
	return b
}

// DropKernels releases every built prefix-sum kernel — the demotion
// path's memory reclaim for an ECDF kept only as a merge base. Later
// queries rebuild tables lazily, so dropping is safe (and safe for
// concurrent use); only the warm cache is lost. The sampler bucket
// table is Once-guarded and cannot be released.
func (e *ECDF) DropKernels() {
	e.kmu.Lock()
	e.kernels = nil
	e.kmu.Unlock()
}
