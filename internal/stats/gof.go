package stats

import (
	"math"
	"sort"
)

// KSStatistic returns the two-sided Kolmogorov–Smirnov distance
// sup_x |F_n(x) - F(x)| between the empirical CDF of sample and the
// theoretical CDF of d.
func KSStatistic(sample []float64, d Distribution) float64 {
	if len(sample) == 0 {
		return 0
	}
	xs := append([]float64(nil), sample...)
	sort.Float64s(xs)
	n := float64(len(xs))
	maxD := 0.0
	for i, x := range xs {
		f := d.CDF(x)
		dPlus := float64(i+1)/n - f
		dMinus := f - float64(i)/n
		if dPlus > maxD {
			maxD = dPlus
		}
		if dMinus > maxD {
			maxD = dMinus
		}
	}
	return maxD
}

// KSPValue approximates the asymptotic p-value of a KS statistic for a
// sample of size n using the Kolmogorov distribution series (with the
// standard small-sample effective-size correction).
func KSPValue(ks float64, n int) float64 {
	if n <= 0 || ks <= 0 {
		return 1
	}
	sqrtN := math.Sqrt(float64(n))
	lambda := (sqrtN + 0.12 + 0.11/sqrtN) * ks
	var p float64
	if lambda < 1.18 {
		// Jacobi-theta dual series, which converges fast for small λ
		// where the alternating series does not:
		// Q(λ) = 1 - (√(2π)/λ) Σ_{k odd} e^{-k²π²/(8λ²)}.
		t := math.Exp(-math.Pi * math.Pi / (8 * lambda * lambda))
		p = 1 - math.Sqrt(2*math.Pi)/lambda*(t+math.Pow(t, 9)+math.Pow(t, 25))
	} else {
		// Q(λ) = 2 Σ_{k>=1} (-1)^{k-1} e^{-2 k² λ²}.
		sum := 0.0
		sign := 1.0
		for k := 1; k <= 100; k++ {
			term := sign * math.Exp(-2*float64(k*k)*lambda*lambda)
			sum += term
			if math.Abs(term) < 1e-12 {
				break
			}
			sign = -sign
		}
		p = 2 * sum
	}
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	}
	return p
}
