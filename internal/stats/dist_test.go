package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// allDists returns a representative set of distributions used by the
// generic conformance tests below.
func allDists() map[string]Distribution {
	return map[string]Distribution{
		"exponential": NewExponential(0.002),
		"uniform":     NewUniform(100, 900),
		"lognormal":   NewLogNormal(6, 0.8),
		"weibull<1":   NewWeibull(0.7, 500),
		"weibull>1":   NewWeibull(1.8, 500),
		"pareto":      NewPareto(120, 2.5),
		"gamma<1":     NewGamma(0.6, 0.002),
		"gamma>1":     NewGamma(3, 0.01),
		"shifted":     NewShifted(NewLogNormal(5.5, 0.9), 120),
		"truncated":   NewTruncatedAbove(NewLogNormal(6, 1.2), 10000),
	}
}

func TestCDFMonotoneAndBounded(t *testing.T) {
	for name, d := range allDists() {
		prev := -1.0
		for x := -50.0; x <= 20000; x += 37.3 {
			c := d.CDF(x)
			if c < 0 || c > 1 || math.IsNaN(c) {
				t.Fatalf("%s: CDF(%v) = %v out of [0,1]", name, x, c)
			}
			if c < prev-1e-12 {
				t.Fatalf("%s: CDF not monotone at %v: %v < %v", name, x, c, prev)
			}
			prev = c
		}
	}
}

func TestQuantileCDFRoundTrip(t *testing.T) {
	for name, d := range allDists() {
		for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			x := d.Quantile(p)
			got := d.CDF(x)
			if math.Abs(got-p) > 1e-6 {
				t.Errorf("%s: CDF(Quantile(%v)) = %v", name, p, got)
			}
		}
	}
}

func TestPDFIntegratesToCDF(t *testing.T) {
	for name, d := range allDists() {
		lo := d.Quantile(0.001)
		for _, p := range []float64{0.2, 0.5, 0.9} {
			hi := d.Quantile(p)
			if hi <= lo {
				continue
			}
			got := AdaptiveSimpson(d.PDF, lo, hi, 1e-10) + d.CDF(lo)
			if math.Abs(got-p) > 1e-4 {
				t.Errorf("%s: ∫pdf to q(%v) = %v, want %v", name, p, got, p)
			}
		}
	}
}

func TestSampleMomentsMatchAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 200000
	for name, d := range allDists() {
		if math.IsInf(d.Var(), 1) || name == "pareto" {
			// Heavy tails: infinite variance, or (pareto with
			// 2<alpha<4) infinite kurtosis making the sample variance
			// converge too slowly for a fixed-n check.
			continue
		}
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			v := d.Rand(rng)
			sum += v
			sum2 += v * v
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		wantMean, wantVar := d.Mean(), d.Var()
		tolM := 0.02 * math.Max(1, math.Abs(wantMean))
		if math.Abs(mean-wantMean) > tolM {
			t.Errorf("%s: sample mean %v vs analytic %v", name, mean, wantMean)
		}
		tolV := 0.1 * math.Max(1, wantVar)
		if math.Abs(variance-wantVar) > tolV {
			t.Errorf("%s: sample var %v vs analytic %v", name, variance, wantVar)
		}
	}
}

func TestSampleVsCDFKolmogorov(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const n = 20000
	for name, d := range allDists() {
		sample := make([]float64, n)
		for i := range sample {
			sample[i] = d.Rand(rng)
		}
		ks := KSStatistic(sample, d)
		// 1.95/sqrt(n) is the 0.1% critical value.
		if ks > 1.95/math.Sqrt(n) {
			t.Errorf("%s: KS=%v exceeds 0.1%% critical value", name, ks)
		}
	}
}

func TestExponentialBasics(t *testing.T) {
	e := NewExponential(0.5)
	almostEq(t, e.Mean(), 2, 1e-12, "mean")
	almostEq(t, e.Var(), 4, 1e-12, "var")
	almostEq(t, e.CDF(2), 1-math.Exp(-1), 1e-12, "cdf")
	almostEq(t, e.Quantile(0.5), 2*math.Ln2, 1e-12, "median")
	if e.PDF(-1) != 0 || e.CDF(-1) != 0 {
		t.Fatal("negative support should be zero")
	}
}

func TestLogNormalFromMoments(t *testing.T) {
	f := func(rawMean, rawStd float64) bool {
		mean := 10 + math.Abs(math.Mod(rawMean, 1000))
		std := 1 + math.Abs(math.Mod(rawStd, 2000))
		l := LogNormalFromMoments(mean, std)
		return math.Abs(l.Mean()-mean) < 1e-6*mean &&
			math.Abs(Std(l)-std) < 1e-6*std
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWeibullSpecialCases(t *testing.T) {
	// k=1 reduces to exponential with rate 1/lambda.
	w := NewWeibull(1, 200)
	e := NewExponential(1.0 / 200)
	for _, x := range []float64{10, 100, 500, 2000} {
		almostEq(t, w.CDF(x), e.CDF(x), 1e-12, "weibull k=1 vs exponential")
	}
	if !math.IsInf(NewWeibull(0.5, 1).PDF(0), 1) {
		t.Fatal("weibull k<1 density should blow up at 0")
	}
	if NewWeibull(2, 1).PDF(0) != 0 {
		t.Fatal("weibull k>1 density should vanish at 0")
	}
}

func TestParetoTail(t *testing.T) {
	p := NewPareto(100, 2)
	almostEq(t, p.Mean(), 200, 1e-12, "mean")
	if !math.IsInf(p.Var(), 1) {
		t.Fatal("alpha=2 variance should be infinite")
	}
	if !math.IsInf(NewPareto(100, 1).Mean(), 1) {
		t.Fatal("alpha=1 mean should be infinite")
	}
	almostEq(t, p.CDF(200), 0.75, 1e-12, "cdf")
	if p.CDF(50) != 0 {
		t.Fatal("below xm CDF must be 0")
	}
}

func TestGammaChiSquareIdentity(t *testing.T) {
	// Chi-square with k dof is Gamma(k/2, 1/2).
	g := NewGamma(1.5, 0.5) // chi2(3)
	almostEq(t, g.CDF(3), 0.6083748237289109, 1e-10, "chi2(3) cdf at 3")
	almostEq(t, g.Mean(), 3, 1e-12, "mean")
	almostEq(t, g.Var(), 6, 1e-12, "var")
}

func TestTruncatedAbove(t *testing.T) {
	base := NewLogNormal(6, 1.5)
	tr := NewTruncatedAbove(base, 10000)
	if got := tr.CDF(10000); got != 1 {
		t.Fatalf("CDF at bound = %v, want 1", got)
	}
	if tr.Quantile(1) != 10000 {
		t.Fatalf("Quantile(1) = %v, want bound", tr.Quantile(1))
	}
	// Truncated mean must be below the untruncated mean and below bound.
	if tr.Mean() >= base.Mean() || tr.Mean() >= 10000 {
		t.Fatalf("truncated mean %v out of range (base %v)", tr.Mean(), base.Mean())
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		if v := tr.Rand(rng); v > 10000 {
			t.Fatalf("sample %v above bound", v)
		}
	}
}

func TestShifted(t *testing.T) {
	base := NewExponential(0.01)
	s := NewShifted(base, 150)
	almostEq(t, s.Mean(), 250, 1e-9, "shifted mean")
	almostEq(t, s.Var(), base.Var(), 1e-9, "shifted var")
	almostEq(t, s.Quantile(0.5), base.Quantile(0.5)+150, 1e-9, "shifted median")
}

func TestConstructorPanics(t *testing.T) {
	mustPanic(t, func() { NewExponential(0) })
	mustPanic(t, func() { NewExponential(-2) })
	mustPanic(t, func() { NewUniform(3, 3) })
	mustPanic(t, func() { NewLogNormal(0, 0) })
	mustPanic(t, func() { NewWeibull(0, 1) })
	mustPanic(t, func() { NewPareto(1, 0) })
	mustPanic(t, func() { NewGamma(-1, 1) })
	mustPanic(t, func() { NewShifted(nil, 0) })
	mustPanic(t, func() { LogNormalFromMoments(-1, 1) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
