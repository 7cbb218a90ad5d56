package stats

import (
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // population standard deviation
	Var    float64 // population variance
	Min    float64
	Max    float64
	Median float64
	P25    float64
	P75    float64
	P95    float64
	P99    float64
}

// Summarize computes descriptive statistics of sample. It returns the
// zero Summary for an empty sample.
func Summarize(sample []float64) Summary {
	if len(sample) == 0 {
		return Summary{}
	}
	s := Summary{N: len(sample)}
	xs := append([]float64(nil), sample...)
	sort.Float64s(xs)
	s.Min, s.Max = xs[0], xs[len(xs)-1]
	s.Mean = Mean(xs)
	s.Var = Variance(xs)
	s.Std = math.Sqrt(s.Var)
	s.Median = Percentile(xs, 0.5)
	s.P25 = Percentile(xs, 0.25)
	s.P75 = Percentile(xs, 0.75)
	s.P95 = Percentile(xs, 0.95)
	s.P99 = Percentile(xs, 0.99)
	return s
}

// Mean returns the arithmetic mean of sample (0 if empty). The
// Kahan-compensated summation keeps the result stable on long traces.
func Mean(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	sum, comp := 0.0, 0.0
	for _, v := range sample {
		y := v - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum / float64(len(sample))
}

// Variance returns the population variance of sample (0 if fewer than
// two values), computed by the two-pass compensated algorithm.
func Variance(sample []float64) float64 {
	if len(sample) < 2 {
		return 0
	}
	mean := Mean(sample)
	var ss, comp float64
	for _, v := range sample {
		d := v - mean
		ss += d * d
		comp += d
	}
	n := float64(len(sample))
	return (ss - comp*comp/n) / n
}

// StdDev returns the population standard deviation of sample.
func StdDev(sample []float64) float64 { return math.Sqrt(Variance(sample)) }

// Percentile returns the p-quantile (p in [0,1]) of a *sorted* sample
// using linear interpolation between closest ranks (type-7, the R/NumPy
// default). It panics on an empty sample.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: percentile of empty sample")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	h := p * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[hi]-sorted[lo])
}
