package stats

import (
	"errors"
	"math"
)

// ErrNoConverge is returned by iterative special-function and fitting
// routines that fail to reach the requested tolerance.
var ErrNoConverge = errors.New("stats: iteration did not converge")

// PowInt computes xⁿ for an integer exponent by binary exponentiation:
// O(log n) multiplications with no exp/log round trip, which is both
// faster than math.Pow for the small integer powers the strategy
// formulas raise survival probabilities to and exact for n in {0, 1}.
// Negative exponents return 1/xⁿ.
func PowInt(x float64, n int) float64 {
	switch {
	case n == math.MinInt:
		// -n would overflow back to minInt; this only arises from
		// out-of-range float→int conversions upstream.
		return math.Pow(x, float64(n))
	case n < 0:
		return 1 / PowInt(x, -n)
	case n == 0:
		return 1
	case n == 1:
		return x // the delayed strategy's hot path
	case n == 2:
		return x * x
	}
	r := 1.0
	for n > 0 {
		if n&1 == 1 {
			r *= x
		}
		x *= x
		n >>= 1
	}
	return r
}

// RegularizedGammaP computes the regularized lower incomplete gamma
// function P(a, x) = γ(a, x)/Γ(a) for a > 0, x >= 0.
//
// It follows the classic Numerical-Recipes split: the series expansion
// converges quickly for x < a+1, the continued fraction elsewhere.
func RegularizedGammaP(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case math.IsInf(x, 1):
		return 1
	case x < a+1:
		return gammaPSeries(a, x)
	default:
		return 1 - gammaQContinuedFraction(a, x)
	}
}

const (
	specialEps     = 1e-14
	specialMaxIter = 500
)

// gammaPSeries evaluates P(a,x) by its power series.
func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < specialMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*specialEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaQContinuedFraction evaluates Q(a,x) by Lentz's continued
// fraction algorithm.
func gammaQContinuedFraction(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= specialMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < specialEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// Digamma returns the digamma function ψ(x) = d/dx ln Γ(x) for x > 0.
// It uses the recurrence ψ(x) = ψ(x+1) - 1/x to push the argument above
// 6 and then the asymptotic expansion.
func Digamma(x float64) float64 {
	if math.IsNaN(x) || x <= 0 && x == math.Trunc(x) {
		return math.NaN()
	}
	result := 0.0
	for x < 12 {
		result -= 1 / x
		x++
	}
	// Asymptotic series: ψ(x) ~ ln x - 1/(2x) - Σ B_{2n}/(2n x^{2n}).
	inv := 1 / x
	inv2 := inv * inv
	result += math.Log(x) - 0.5*inv
	result -= inv2 * (1.0/12 - inv2*(1.0/120-inv2*(1.0/252-inv2*(1.0/240-inv2*1.0/132))))
	return result
}

// Trigamma returns ψ'(x), the derivative of the digamma function, for
// x > 0. Used by the Newton iteration in gamma MLE fitting.
func Trigamma(x float64) float64 {
	if math.IsNaN(x) || x <= 0 {
		return math.NaN()
	}
	result := 0.0
	for x < 12 {
		result += 1 / (x * x)
		x++
	}
	inv := 1 / x
	inv2 := inv * inv
	// ψ'(x) ~ 1/x + 1/(2x²) + Σ B_{2n}/x^{2n+1}.
	result += inv * (1 + 0.5*inv + inv2*(1.0/6-inv2*(1.0/30-inv2*(1.0/42-inv2*1.0/30))))
	return result
}

// NormalQuantile returns the quantile function (inverse CDF) of the
// standard normal distribution, using the Acklam rational approximation
// polished by one Halley step — good to ~1e-15.
func NormalQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}

	// Coefficients for the Acklam approximation.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}

	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One Halley step against the exact CDF.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// NormalCDF returns the standard normal cumulative distribution
// function Φ(x).
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
