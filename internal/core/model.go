// Package core implements the probabilistic submission-strategy models
// of "Modeling User Submission Strategies on Production Grids"
// (Lingrand, Montagnat, Glatard — HPDC 2009).
//
// All three strategies are functionals of the cumulative latency
// histogram F̃R(t) = (1-ρ)·FR(t), where FR is the CDF of non-outlier
// latencies and ρ the outlier ratio:
//
//   - single resubmission with timeout t∞ (paper §4, Eq. 1–2),
//   - multiple submission of b copies (paper §5, Eq. 3–4),
//   - delayed resubmission with delay t0 and timeout t∞ (paper §6),
//     including the average parallel-job count N‖ (§6.1) and the cost
//     criterion Δcost (§7, Eq. 6).
//
// The latency model is abstracted by the Model interface with an exact
// empirical implementation (step-function integrals over a trace ECDF,
// no discretization error) and a parametric implementation (closed-form
// or quadrature over any stats.Distribution), so every formula can be
// cross-validated three ways: exact analytics, quadrature, and Monte
// Carlo simulation of the actual client behaviour.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"gridstrat/internal/stats"
	"gridstrat/internal/trace"
)

// Inf marks an outlier latency in samples drawn from a Model: the job
// never starts within any practical horizon and must be resubmitted.
var Inf = math.Inf(1)

// Model is the latency law F̃R consumed by every strategy formula.
//
// Concurrency: the Planner and the `…Ctx` entry points with a worker
// count other than 1 call Model methods from multiple goroutines, so
// implementations used there must be safe for concurrent use (the
// in-repo empirical and parametric models are — they are read-only
// after construction). The legacy non-ctx free functions and the
// Strategy methods run on the calling goroutine only and carry no such
// requirement; passing workers = 1 (or Planner WithParallelism(1))
// opts any entry point out of concurrency.
type Model interface {
	// Ftilde returns F̃R(t) = (1-ρ)·FR(t) = P(R < t), the probability
	// that a submitted job starts before t.
	Ftilde(t float64) float64
	// Rho returns the outlier ratio ρ.
	Rho() float64
	// UpperBound returns the largest useful timeout (the probe
	// censoring bound); optimizers bracket searches with it.
	UpperBound() float64
	// IntOneMinusFPow returns ∫₀ᵀ (1 - F̃R(u))^b du.
	IntOneMinusFPow(T float64, b int) float64
	// IntUOneMinusFPow returns ∫₀ᵀ u·(1 - F̃R(u))^b du.
	IntUOneMinusFPow(T float64, b int) float64
	// IntProdOneMinusF returns ∫₀ᵀ (1-F̃R(u+shift))·(1-F̃R(u)) du, the
	// cross term of the delayed-resubmission survival function.
	IntProdOneMinusF(T, shift float64) float64
	// IntUProdOneMinusF returns ∫₀ᵀ u·(1-F̃R(u+shift))·(1-F̃R(u)) du.
	IntUProdOneMinusF(T, shift float64) float64
	// Sample draws one job latency: Inf with probability ρ, otherwise
	// a draw from FR.
	Sample(rng *rand.Rand) float64
}

// BatchIntegrals is an optional Model extension: a model that can
// answer a whole ascending grid of integral queries in one sweep (the
// ECDF prefix-sum kernels answer G queries in O(n + G) instead of G
// separate O(n) walks). Batch results must be identical — bit for bit
// — to the corresponding scalar methods at every entry. A model that
// implements both BatchIntegrals and ProdBothIntegrals has the
// optimizers scan through its own kernels; any other model is scanned
// point by point through its scalar methods (see kernelsOf), so
// implementing the extensions is purely a wall-clock optimization and
// never changes an optimizer's answer.
type BatchIntegrals interface {
	// IntOneMinusFPowBatch returns ∫₀ᵀ (1-F̃R(u))^b du for every T in Ts
	// (ascending for the swept path).
	IntOneMinusFPowBatch(Ts []float64, b int) []float64
	// IntProdBothBatch returns both delayed cross terms for every T in
	// Ts at a single shared shift — one merged walk for a whole grid
	// row of the (t0, t∞) surface.
	IntProdBothBatch(Ts []float64, shift float64) (plain, uweighted []float64)
}

// ProdBothIntegrals is an optional Model extension: both delayed
// cross-term integrals from one merged walk, halving the walk count of
// every delayed-strategy evaluation. Results must equal the two scalar
// methods. See BatchIntegrals for how the optimizers pick it up.
type ProdBothIntegrals interface {
	IntProdBothOneMinusF(T, shift float64) (plain, uweighted float64)
}

// kernels is the integral surface every optimizer evaluates through: a
// Model with both optional extensions.
type kernels interface {
	Model
	BatchIntegrals
	ProdBothIntegrals
}

// kernelsOf is the one place that decides how a model is scanned: m
// itself when it brings its own batch and fused cross-term kernels,
// otherwise the pointwise adapter over its scalar methods.
func kernelsOf(m Model) kernels {
	if k, ok := m.(kernels); ok {
		return k
	}
	return pointwise{m}
}

// pointwise answers a model's batch and fused cross-term integrals
// point by point through its scalar methods, in grid order — values
// are the scalar values bit for bit. The delayed row sweep asks it for
// plain cross terms alone (see ejDelayedRatioGrid), since here the
// u-weighted half is a second full walk, not a free by-product.
type pointwise struct{ Model }

func (p pointwise) IntOneMinusFPowBatch(Ts []float64, b int) []float64 {
	out := make([]float64, len(Ts))
	for i, t := range Ts {
		out[i] = p.IntOneMinusFPow(t, b)
	}
	return out
}

func (p pointwise) IntProdBothBatch(Ts []float64, shift float64) (plain, uweighted []float64) {
	plain = make([]float64, len(Ts))
	uweighted = make([]float64, len(Ts))
	for i, t := range Ts {
		plain[i], uweighted[i] = p.IntProdBothOneMinusF(t, shift)
	}
	return plain, uweighted
}

func (p pointwise) IntProdBothOneMinusF(T, shift float64) (plain, uweighted float64) {
	return p.IntProdOneMinusF(T, shift), p.IntUProdOneMinusF(T, shift)
}

// --- Empirical model ---

// EmpiricalModel is the trace-driven Model: FR is an empirical law of
// completed-probe latencies and every integral is evaluated on its
// step function. The law is any stats.EmpiricalDistribution — the
// exact counted ECDF or the mergeable quantile Sketch — so the model,
// the Planner memoization above it, and every strategy formula are
// representation-agnostic: swapping the backend (the serving layer's
// exact ⇄ sketch tier moves) changes nothing at any call site. With
// the ECDF backend every integral is exact; with the Sketch backend it
// is exact over the sketched step function, within the sketch's rank
// error bound of the true one.
type EmpiricalModel struct {
	dist    stats.EmpiricalDistribution
	rho     float64
	timeout float64
}

// NewEmpiricalModel wraps an ECDF of non-outlier latencies with an
// outlier ratio and censoring bound.
func NewEmpiricalModel(ecdf *stats.ECDF, rho, timeout float64) (*EmpiricalModel, error) {
	if ecdf == nil {
		return nil, errors.New("core: nil ECDF")
	}
	return NewEmpiricalModelDist(ecdf, rho, timeout)
}

// NewEmpiricalModelDist wraps any empirical latency law — exact ECDF
// or quantile Sketch — with an outlier ratio and censoring bound; the
// representation-agnostic constructor the tiered serving layer uses.
func NewEmpiricalModelDist(dist stats.EmpiricalDistribution, rho, timeout float64) (*EmpiricalModel, error) {
	if dist == nil {
		return nil, errors.New("core: nil distribution")
	}
	if rho < 0 || rho >= 1 || math.IsNaN(rho) {
		return nil, fmt.Errorf("core: outlier ratio %v outside [0, 1)", rho)
	}
	if timeout <= 0 {
		return nil, fmt.Errorf("core: non-positive timeout %v", timeout)
	}
	return &EmpiricalModel{dist: dist, rho: rho, timeout: timeout}, nil
}

// ModelFromTrace builds the empirical latency model of a probe trace.
func ModelFromTrace(t *trace.Trace) (*EmpiricalModel, error) {
	e, err := t.ECDF()
	if err != nil {
		return nil, fmt.Errorf("core: building model from trace %q: %w", t.Name, err)
	}
	return NewEmpiricalModel(e, t.OutlierRatio(), t.Timeout)
}

// Distribution exposes the underlying empirical latency law, whatever
// its representation (read-only use).
func (m *EmpiricalModel) Distribution() stats.EmpiricalDistribution { return m.dist }

// ECDF exposes the underlying empirical CDF as a step-function ECDF
// (read-only use). For an exact-backed model this is the ECDF itself;
// for a sketch-backed model it is the sketch's compiled counted-ECDF
// view, so bootstrap resampling and plotting code keep working across
// tiers.
func (m *EmpiricalModel) ECDF() *stats.ECDF {
	switch d := m.dist.(type) {
	case *stats.ECDF:
		return d
	case *stats.Sketch:
		return d.View()
	default:
		return nil
	}
}

func (m *EmpiricalModel) Ftilde(t float64) float64 { return (1 - m.rho) * m.dist.Eval(t) }
func (m *EmpiricalModel) Rho() float64             { return m.rho }
func (m *EmpiricalModel) UpperBound() float64      { return m.timeout }

func (m *EmpiricalModel) IntOneMinusFPow(T float64, b int) float64 {
	return m.dist.IntegralOneMinusFPow(T, 1-m.rho, b)
}

func (m *EmpiricalModel) IntUOneMinusFPow(T float64, b int) float64 {
	return m.dist.IntegralUOneMinusFPow(T, 1-m.rho, b)
}

func (m *EmpiricalModel) IntProdOneMinusF(T, shift float64) float64 {
	return m.dist.IntegralProdOneMinusF(T, shift, 1-m.rho)
}

func (m *EmpiricalModel) IntUProdOneMinusF(T, shift float64) float64 {
	return m.dist.IntegralUProdOneMinusF(T, shift, 1-m.rho)
}

// IntOneMinusFPowBatch implements BatchIntegrals over the law's
// prefix-sum kernel.
func (m *EmpiricalModel) IntOneMinusFPowBatch(Ts []float64, b int) []float64 {
	return m.dist.IntegralOneMinusFPowBatch(Ts, 1-m.rho, b)
}

// IntUOneMinusFPowBatch is the u-weighted companion of
// IntOneMinusFPowBatch over the same prefix-sum kernel (no optimizer
// consumes it, so it is not part of BatchIntegrals).
func (m *EmpiricalModel) IntUOneMinusFPowBatch(Ts []float64, b int) []float64 {
	return m.dist.IntegralUOneMinusFPowBatch(Ts, 1-m.rho, b)
}

// IntProdBothBatch implements BatchIntegrals: one merged walk answers
// both cross terms for a whole sorted grid sharing one shift.
func (m *EmpiricalModel) IntProdBothBatch(Ts []float64, shift float64) (plain, uweighted []float64) {
	return m.dist.IntegralProdBothBatch(Ts, shift, 1-m.rho)
}

// IntProdBothOneMinusF implements ProdBothIntegrals: both cross terms
// from one walk.
func (m *EmpiricalModel) IntProdBothOneMinusF(T, shift float64) (plain, uweighted float64) {
	return m.dist.IntegralProdBoth(T, shift, 1-m.rho)
}

func (m *EmpiricalModel) Sample(rng *rand.Rand) float64 {
	if rng.Float64() < m.rho {
		return Inf
	}
	return m.dist.Rand(rng)
}

// MemBytes estimates the resident heap footprint of the model's
// latency law — the registry's byte accounting reads it.
func (m *EmpiricalModel) MemBytes() int64 { return m.dist.MemBytes() }

// TableKeys returns the (s, b) prefix-sum kernel keys this model's law
// has built — the warm-cache manifest of an outgoing model epoch.
// Handing it to the successor's Prewarm reproduces the old epoch's hot
// tables ahead of an atomic model swap.
func (m *EmpiricalModel) TableKeys() []stats.TableKey { return m.dist.TableKeys() }

// Prewarm eagerly builds the law's kernels for the given keys, so the
// first queries on a freshly swapped-in model cost a binary search
// instead of an O(n) table build. Safe for concurrent use. The
// bootstrap-sampler table warms separately (PrewarmSampler on the law)
// and only when the predecessor actually sampled.
func (m *EmpiricalModel) Prewarm(keys []stats.TableKey) { m.dist.Prewarm(keys) }

// --- Parametric model ---

// ParametricModel is a Model over an analytic latency distribution;
// integrals use adaptive quadrature. It exists to validate the exact
// empirical path against closed forms (e.g. exponential latencies) and
// to run what-if studies without a trace.
type ParametricModel struct {
	dist    stats.Distribution
	rho     float64
	timeout float64
}

// NewParametricModel wraps a latency distribution with an outlier
// ratio and an upper bound for optimizer brackets.
func NewParametricModel(d stats.Distribution, rho, timeout float64) (*ParametricModel, error) {
	if d == nil {
		return nil, errors.New("core: nil distribution")
	}
	if rho < 0 || rho >= 1 || math.IsNaN(rho) {
		return nil, fmt.Errorf("core: outlier ratio %v outside [0, 1)", rho)
	}
	if timeout <= 0 {
		return nil, fmt.Errorf("core: non-positive timeout %v", timeout)
	}
	return &ParametricModel{dist: d, rho: rho, timeout: timeout}, nil
}

// Distribution exposes the underlying latency law.
func (m *ParametricModel) Distribution() stats.Distribution { return m.dist }

func (m *ParametricModel) Ftilde(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return (1 - m.rho) * m.dist.CDF(t)
}
func (m *ParametricModel) Rho() float64        { return m.rho }
func (m *ParametricModel) UpperBound() float64 { return m.timeout }

func (m *ParametricModel) IntOneMinusFPow(T float64, b int) float64 {
	if T <= 0 {
		return 0
	}
	f := func(u float64) float64 {
		return stats.PowInt(1-m.Ftilde(u), b)
	}
	return chunkedAdaptive(f, T, 1e-10*T)
}

func (m *ParametricModel) IntUOneMinusFPow(T float64, b int) float64 {
	if T <= 0 {
		return 0
	}
	f := func(u float64) float64 {
		return u * stats.PowInt(1-m.Ftilde(u), b)
	}
	return chunkedAdaptive(f, T, 1e-10*T*T)
}

// chunkedAdaptive integrates f over [0, T] in geometrically growing
// chunks. Latency integrands concentrate in the first percent of large
// timeouts, where a single top-level adaptive pass can sample past the
// feature and terminate spuriously; per-chunk adaptivity cannot.
func chunkedAdaptive(f func(float64) float64, T, tol float64) float64 {
	total := 0.0
	lo := 0.0
	step := T / 1024
	for lo < T {
		hi := math.Min(T, math.Max(2*lo, step))
		total += stats.AdaptiveSimpson(f, lo, hi, tol/12)
		lo = hi
	}
	return total
}

func (m *ParametricModel) IntProdOneMinusF(T, shift float64) float64 {
	if T <= 0 {
		return 0
	}
	f := func(u float64) float64 {
		return (1 - m.Ftilde(u+shift)) * (1 - m.Ftilde(u))
	}
	return chunkedAdaptive(f, T, 1e-10*T)
}

func (m *ParametricModel) IntUProdOneMinusF(T, shift float64) float64 {
	if T <= 0 {
		return 0
	}
	f := func(u float64) float64 {
		return u * (1 - m.Ftilde(u+shift)) * (1 - m.Ftilde(u))
	}
	return chunkedAdaptive(f, T, 1e-10*T*T)
}

func (m *ParametricModel) Sample(rng *rand.Rand) float64 {
	if rng.Float64() < m.rho {
		return Inf
	}
	return m.dist.Rand(rng)
}
