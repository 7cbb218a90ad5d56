package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// Shifted translates a base distribution right by Offset: if X ~ Base
// then Shifted is the law of X + Offset. Grid latencies have a hard
// floor (middleware round-trip time), which a positive offset models.
type Shifted struct {
	Base   Distribution
	Offset float64
}

// NewShifted returns Base translated by offset (offset may be any
// finite value).
func NewShifted(base Distribution, offset float64) Shifted {
	if base == nil || math.IsNaN(offset) || math.IsInf(offset, 0) {
		panic("stats: shifted requires a base distribution and finite offset")
	}
	return Shifted{Base: base, Offset: offset}
}

func (s Shifted) PDF(x float64) float64      { return s.Base.PDF(x - s.Offset) }
func (s Shifted) CDF(x float64) float64      { return s.Base.CDF(x - s.Offset) }
func (s Shifted) Quantile(p float64) float64 { return s.Base.Quantile(p) + s.Offset }
func (s Shifted) Rand(rng *rand.Rand) float64 {
	return s.Base.Rand(rng) + s.Offset
}
func (s Shifted) Mean() float64 { return s.Base.Mean() + s.Offset }
func (s Shifted) Var() float64  { return s.Base.Var() }

// TruncatedAbove conditions a base distribution on X <= Bound. It is
// used to model the paper's 10,000-second probe timeout: observed
// non-outlier latencies are exactly the base law conditioned below the
// timeout.
type TruncatedAbove struct {
	Base  Distribution
	Bound float64
	mass  float64 // CDF(Bound), cached
}

// NewTruncatedAbove returns Base conditioned on X <= bound; it panics
// if the base puts (numerically) no mass below bound.
func NewTruncatedAbove(base Distribution, bound float64) TruncatedAbove {
	if base == nil {
		panic("stats: truncation requires a base distribution")
	}
	mass := base.CDF(bound)
	if !(mass > 0) {
		panic(fmt.Sprintf("stats: no mass below truncation bound %v", bound))
	}
	return TruncatedAbove{Base: base, Bound: bound, mass: mass}
}

func (t TruncatedAbove) PDF(x float64) float64 {
	if x > t.Bound {
		return 0
	}
	return t.Base.PDF(x) / t.mass
}

func (t TruncatedAbove) CDF(x float64) float64 {
	if x >= t.Bound {
		return 1
	}
	return t.Base.CDF(x) / t.mass
}

func (t TruncatedAbove) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return t.Base.Quantile(0)
	case p >= 1:
		return t.Bound
	}
	return t.Base.Quantile(p * t.mass)
}

// Rand draws by inversion so that no rejection loop is needed even for
// deep truncation.
func (t TruncatedAbove) Rand(rng *rand.Rand) float64 {
	return t.Quantile(rng.Float64())
}

// Mean integrates x·pdf over [q(0), Bound] numerically.
func (t TruncatedAbove) Mean() float64 {
	m, _ := t.moments()
	return m
}

// Var integrates numerically alongside Mean.
func (t TruncatedAbove) Var() float64 {
	_, v := t.moments()
	return v
}

func (t TruncatedAbove) moments() (mean, variance float64) {
	// Integrate by quantile substitution: E[g(X)] = ∫₀¹ g(Q(p)) dp,
	// which is robust for heavy-tailed bases.
	const n = 4096
	var s1, s2 float64
	for i := 0; i < n; i++ {
		p := (float64(i) + 0.5) / n
		x := t.Quantile(p)
		s1 += x
		s2 += x * x
	}
	mean = s1 / n
	variance = s2/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}
