package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// FitResult reports a fitted distribution together with its
// log-likelihood and the Kolmogorov–Smirnov distance to the sample, so
// that candidate families can be ranked.
type FitResult struct {
	Name   string
	Dist   Distribution
	LogLik float64
	KS     float64
}

// FitExponentialMLE fits an exponential distribution by maximum
// likelihood (rate = 1/mean). It errors on empty or non-positive-mean
// samples.
func FitExponentialMLE(sample []float64) (Exponential, error) {
	if len(sample) == 0 {
		return Exponential{}, ErrEmpty
	}
	m := Mean(sample)
	if m <= 0 {
		return Exponential{}, errors.New("stats: exponential MLE requires positive mean")
	}
	return Exponential{Rate: 1 / m}, nil
}

// FitLogNormalMLE fits a lognormal by maximum likelihood (mean and
// variance of the log sample). All values must be positive.
func FitLogNormalMLE(sample []float64) (LogNormal, error) {
	if len(sample) == 0 {
		return LogNormal{}, ErrEmpty
	}
	logs := make([]float64, len(sample))
	for i, v := range sample {
		if v <= 0 {
			return LogNormal{}, fmt.Errorf("stats: lognormal MLE requires positive data, got %v", v)
		}
		logs[i] = math.Log(v)
	}
	mu := Mean(logs)
	sigma := StdDev(logs)
	if sigma <= 0 {
		sigma = 1e-9 // degenerate: all values equal
	}
	return LogNormal{Mu: mu, Sigma: sigma}, nil
}

// FitParetoMLE fits a Pareto distribution by maximum likelihood with
// xm set to the sample minimum.
func FitParetoMLE(sample []float64) (Pareto, error) {
	if len(sample) == 0 {
		return Pareto{}, ErrEmpty
	}
	xm := math.Inf(1)
	for _, v := range sample {
		if v <= 0 {
			return Pareto{}, fmt.Errorf("stats: pareto MLE requires positive data, got %v", v)
		}
		xm = math.Min(xm, v)
	}
	sum := 0.0
	for _, v := range sample {
		sum += math.Log(v / xm)
	}
	if sum <= 0 {
		return Pareto{}, errors.New("stats: pareto MLE degenerate sample")
	}
	return Pareto{Xm: xm, Alpha: float64(len(sample)) / sum}, nil
}

// FitWeibullMLE fits a Weibull distribution by maximum likelihood,
// solving the shape equation by Newton iteration started at the
// method-of-moments estimate.
func FitWeibullMLE(sample []float64) (Weibull, error) {
	if len(sample) == 0 {
		return Weibull{}, ErrEmpty
	}
	var logs []float64
	for _, v := range sample {
		if v <= 0 {
			return Weibull{}, fmt.Errorf("stats: weibull MLE requires positive data, got %v", v)
		}
		logs = append(logs, math.Log(v))
	}
	meanLog := Mean(logs)

	// Initial shape from the log-variance relation:
	// Var[ln X] = π²/(6 k²).
	vLog := Variance(logs)
	k := math.Pi / math.Sqrt(6*math.Max(vLog, 1e-12))
	if k <= 0 || math.IsNaN(k) || math.IsInf(k, 0) {
		k = 1
	}

	// MLE condition: g(k) = Σx^k ln x / Σx^k - 1/k - meanLog = 0.
	g := func(k float64) (val, deriv float64) {
		var s0, s1, s2 float64
		for i, v := range sample {
			xk := math.Pow(v, k)
			s0 += xk
			s1 += xk * logs[i]
			s2 += xk * logs[i] * logs[i]
		}
		val = s1/s0 - 1/k - meanLog
		deriv = (s2*s0-s1*s1)/(s0*s0) + 1/(k*k)
		return val, deriv
	}

	converged := false
	for i := 0; i < 100; i++ {
		val, deriv := g(k)
		if math.Abs(val) < 1e-10 {
			converged = true
			break
		}
		if deriv == 0 || math.IsNaN(deriv) {
			break
		}
		next := k - val/deriv
		if next <= 0 {
			next = k / 2
		}
		if math.Abs(next-k) < 1e-12*math.Max(1, k) {
			k = next
			converged = true
			break
		}
		k = next
	}
	if !converged {
		// Fall back to bisection over a wide bracket.
		lo, hi := 1e-3, 1e3
		flo, _ := g(lo)
		fhi, _ := g(hi)
		if flo*fhi > 0 {
			return Weibull{}, ErrNoConverge
		}
		for i := 0; i < 200; i++ {
			mid := 0.5 * (lo + hi)
			fm, _ := g(mid)
			if flo*fm <= 0 {
				hi = mid
			} else {
				lo, flo = mid, fm
			}
		}
		k = 0.5 * (lo + hi)
	}

	var sk float64
	for _, v := range sample {
		sk += math.Pow(v, k)
	}
	lambda := math.Pow(sk/float64(len(sample)), 1/k)
	if lambda <= 0 || math.IsNaN(lambda) {
		return Weibull{}, ErrNoConverge
	}
	return Weibull{K: k, Lambda: lambda}, nil
}

// FitGammaMLE fits a gamma distribution by maximum likelihood using
// the standard Newton iteration on the shape from the
// log-mean/mean-log statistic.
func FitGammaMLE(sample []float64) (Gamma, error) {
	if len(sample) == 0 {
		return Gamma{}, ErrEmpty
	}
	var sumLog float64
	for _, v := range sample {
		if v <= 0 {
			return Gamma{}, fmt.Errorf("stats: gamma MLE requires positive data, got %v", v)
		}
		sumLog += math.Log(v)
	}
	mean := Mean(sample)
	s := math.Log(mean) - sumLog/float64(len(sample))
	if s <= 0 {
		return Gamma{}, errors.New("stats: gamma MLE degenerate sample")
	}
	// Minka's initialization.
	alpha := (3 - s + math.Sqrt((s-3)*(s-3)+24*s)) / (12 * s)
	for i := 0; i < 100; i++ {
		num := math.Log(alpha) - Digamma(alpha) - s
		den := 1/alpha - Trigamma(alpha)
		if den == 0 {
			break
		}
		next := alpha - num/den
		if next <= 0 {
			next = alpha / 2
		}
		if math.Abs(next-alpha) < 1e-12*math.Max(1, alpha) {
			alpha = next
			break
		}
		alpha = next
	}
	if alpha <= 0 || math.IsNaN(alpha) {
		return Gamma{}, ErrNoConverge
	}
	return Gamma{Alpha: alpha, Beta: alpha / mean}, nil
}

// LogLikelihood returns the total log density of sample under d.
func LogLikelihood(d Distribution, sample []float64) float64 {
	sum := 0.0
	for _, v := range sample {
		p := d.PDF(v)
		if p <= 0 {
			return math.Inf(-1)
		}
		sum += math.Log(p)
	}
	return sum
}

// FitBest fits every applicable parametric family to the sample by MLE
// and returns the results sorted by descending log-likelihood. Families
// that fail to fit are silently skipped; the slice may be empty.
func FitBest(sample []float64) []FitResult {
	var out []FitResult
	add := func(name string, d Distribution, err error) {
		if err != nil {
			return
		}
		out = append(out, FitResult{
			Name:   name,
			Dist:   d,
			LogLik: LogLikelihood(d, sample),
			KS:     KSStatistic(sample, d),
		})
	}
	exp, err := FitExponentialMLE(sample)
	add("exponential", exp, err)
	ln, err := FitLogNormalMLE(sample)
	add("lognormal", ln, err)
	wb, err := FitWeibullMLE(sample)
	add("weibull", wb, err)
	gm, err := FitGammaMLE(sample)
	add("gamma", gm, err)
	pa, err := FitParetoMLE(sample)
	add("pareto", pa, err)

	sort.Slice(out, func(i, j int) bool { return out[i].LogLik > out[j].LogLik })
	return out
}
