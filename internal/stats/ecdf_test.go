package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := MustECDF([]float64{3, 1, 2, 2, 5})
	if e.N() != 5 {
		t.Fatalf("N = %d", e.N())
	}
	almostEq(t, e.Eval(0.5), 0, 1e-15, "below min")
	almostEq(t, e.Eval(1), 0.2, 1e-15, "at 1")
	almostEq(t, e.Eval(2), 0.6, 1e-15, "at duplicate 2")
	almostEq(t, e.Eval(2.5), 0.6, 1e-15, "between")
	almostEq(t, e.Eval(5), 1, 1e-15, "at max")
	almostEq(t, e.Eval(100), 1, 1e-15, "above max")
	almostEq(t, e.Mean(), 13.0/5, 1e-12, "mean")
	if e.Min() != 1 || e.Max() != 5 {
		t.Fatalf("min/max = %v/%v", e.Min(), e.Max())
	}
}

func TestECDFErrors(t *testing.T) {
	if _, err := NewECDF(nil); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	if _, err := NewECDF([]float64{1, math.NaN()}); err == nil {
		t.Fatal("want NaN error")
	}
	// Latencies are non-negative; a negative value would put support
	// below the kernels' origin at 0.
	for _, sample := range [][]float64{{-1, 5, 9}, {-2, -1, 1, 3}, {3, math.Inf(-1)}} {
		if _, err := NewECDF(sample); err == nil {
			t.Fatalf("NewECDF(%v) accepted a negative value", sample)
		}
	}
	if _, err := NewECDF([]float64{0, 0, 2}); err != nil {
		t.Fatalf("zero latencies rejected: %v", err)
	}
}

func TestECDFQuantileInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sample := make([]float64, 500)
	for i := range sample {
		sample[i] = rng.Float64() * 1000
	}
	e := MustECDF(sample)
	for _, p := range []float64{0.01, 0.3, 0.5, 0.77, 0.99} {
		x := e.Quantile(p)
		if e.Eval(x) < p {
			t.Fatalf("Eval(Quantile(%v)) = %v < p", p, e.Eval(x))
		}
	}
	if e.Quantile(0) != e.Min() || e.Quantile(1) != e.Max() {
		t.Fatal("quantile limits wrong")
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		sample := make([]float64, len(raw))
		for i, v := range raw {
			sample[i] = math.Mod(math.Abs(v), 1e6)
		}
		e := MustECDF(sample)
		prev := -1.0
		for x := e.Min() - 1; x <= e.Max()+1; x += (e.Max() - e.Min() + 2) / 50 {
			c := e.Eval(x)
			if c < prev || c < 0 || c > 1 {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestECDFMeanVarMatchSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sample := make([]float64, 999)
	for i := range sample {
		sample[i] = rng.NormFloat64()*30 + 500
	}
	e := MustECDF(sample)
	almostEq(t, e.Mean(), Mean(sample), 1e-9, "mean")
	almostEq(t, e.Var(), Variance(sample), 1e-6, "var")
	almostEq(t, e.Std(), StdDev(sample), 1e-7, "std")
}

// integralBruteForce numerically integrates (1-s·F)^b with tiny steps
// for cross-checking the exact step integrals.
func integralBruteForce(e *ECDF, T, s float64, b int, moment int) float64 {
	const steps = 400000
	h := T / steps
	sum := 0.0
	for i := 0; i < steps; i++ {
		u := (float64(i) + 0.5) * h
		v := math.Pow(1-s*e.Eval(u), float64(b))
		if moment == 1 {
			v *= u
		}
		sum += v
	}
	return sum * h
}

func TestIntegralOneMinusFPowExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sample := make([]float64, 60)
	for i := range sample {
		sample[i] = rng.Float64() * 100
	}
	e := MustECDF(sample)
	for _, tc := range []struct {
		T, s float64
		b    int
	}{
		{50, 1, 1}, {50, 0.9, 1}, {80, 0.95, 3}, {120, 0.8, 5}, {30, 1, 2},
	} {
		got := e.IntegralOneMinusFPow(tc.T, tc.s, tc.b)
		want := integralBruteForce(e, tc.T, tc.s, tc.b, 0)
		almostEq(t, got, want, 1e-2, "∫(1-sF)^b")

		got = e.IntegralUOneMinusFPow(tc.T, tc.s, tc.b)
		want = integralBruteForce(e, tc.T, tc.s, tc.b, 1)
		almostEq(t, got, want, 1.0, "∫u(1-sF)^b")
	}
}

func TestIntegralEdgeCases(t *testing.T) {
	e := MustECDF([]float64{10, 20})
	if e.IntegralOneMinusFPow(0, 1, 1) != 0 {
		t.Fatal("T=0 integral should be 0")
	}
	if e.IntegralOneMinusFPow(-5, 1, 1) != 0 {
		t.Fatal("negative T integral should be 0")
	}
	// Before any sample point, integrand is 1: ∫₀⁵ 1 du = 5.
	almostEq(t, e.IntegralOneMinusFPow(5, 1, 1), 5, 1e-12, "pre-support")
	// After all mass with s=1, integrand vanishes beyond 20.
	almostEq(t, e.IntegralOneMinusFPow(100, 1, 1),
		10+0.5*10, 1e-12, "post-support") // 10 (to first) + 0.5*10 (half mass)
	mustPanic(t, func() { e.IntegralOneMinusFPow(10, 1, 0) })
	mustPanic(t, func() { e.IntegralUOneMinusFPow(10, 1, -1) })
}

func TestIntegralAgainstAnalyticExponential(t *testing.T) {
	// For huge samples the ECDF integral converges to the analytic
	// ∫₀ᵀ e^{-λu} du = (1-e^{-λT})/λ.
	rng := rand.New(rand.NewSource(31))
	d := NewExponential(0.01)
	sample := make([]float64, 150000)
	for i := range sample {
		sample[i] = d.Rand(rng)
	}
	e := MustECDF(sample)
	T := 300.0
	want := (1 - math.Exp(-0.01*T)) / 0.01
	got := e.IntegralOneMinusFPow(T, 1, 1)
	if math.Abs(got-want) > want*0.02 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestECDFBootstrapRand(t *testing.T) {
	e := MustECDF([]float64{5, 5, 5, 9})
	rng := rand.New(rand.NewSource(41))
	count9 := 0
	const n = 100000
	for i := 0; i < n; i++ {
		v := e.Rand(rng)
		if v != 5 && v != 9 {
			t.Fatalf("bootstrap drew %v not in support", v)
		}
		if v == 9 {
			count9++
		}
	}
	frac := float64(count9) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("P(9) = %v, want 0.25", frac)
	}
}

func TestECDFSupportSorted(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = math.Mod(math.Abs(v), 1000)
			if math.IsNaN(xs[i]) {
				xs[i] = 0
			}
		}
		e := MustECDF(xs)
		return sort.Float64sAreSorted(e.Support())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzEvalAscending holds the galloping sweep to Eval bit for bit: on
// a random law (integer mode makes sample ties and query points that
// land exactly on support values, zero puts an atom at 0), a grid from
// below Min to past Max that is sparse (far fewer points than support
// values) or dense (far more), with every support value and its
// neighbours mixed in, answered ascending, in place, and shuffled
// (the cursor's restart path, NaN included).
func FuzzEvalAscending(f *testing.F) {
	f.Add(int64(1), uint16(200), false, false, -3.0, 1.2, uint16(7))
	f.Add(int64(2), uint16(30), true, true, 0.0, 1.0, uint16(3000))
	f.Add(int64(3), uint16(0), false, true, 5.0, 0.1, uint16(1))
	f.Add(int64(4), uint16(1000), true, false, -0.5, 2.0, uint16(64))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, integer, zero bool, lo, span float64, g uint16) {
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(span) || math.IsInf(span, 0) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		sample := make([]float64, 1+int(n)%1024)
		for i := range sample {
			if integer {
				sample[i] = float64(1 + rng.Intn(25))
			} else {
				sample[i] = rng.ExpFloat64() * 100
			}
		}
		if zero {
			sample[0] = 0
		}
		e := MustECDF(sample)
		width := e.Max() - e.Min() + 1
		start := e.Min() + math.Mod(lo, 4)*width // below Min down to ~4 widths
		h := (math.Mod(math.Abs(span), 4) + 1e-3) * width / float64(1+int(g)%4096)
		xs := make([]float64, 0, 1+int(g)%4096+3*len(e.xs))
		for i := 0; i <= int(g)%4096; i++ {
			xs = append(xs, start+float64(i)*h)
		}
		for _, x := range e.xs {
			xs = append(xs, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
		}
		sort.Float64s(xs)
		check := func(what string, qs []float64) {
			t.Helper()
			out := make([]float64, len(qs))
			e.EvalAscending(qs, out)
			inPlace := append([]float64(nil), qs...)
			e.EvalAscending(inPlace, inPlace)
			for i, x := range qs {
				want := e.Eval(x)
				if math.Float64bits(out[i]) != math.Float64bits(want) || math.Float64bits(inPlace[i]) != math.Float64bits(want) {
					t.Fatalf("%s: point %d (%v): EvalAscending %v, in place %v, Eval %v", what, i, x, out[i], inPlace[i], want)
				}
			}
		}
		check("ascending", xs)
		shuffled := append([]float64(nil), xs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		shuffled = append(shuffled, math.NaN(), e.Min(), math.Inf(1), math.Inf(-1), e.Max())
		check("shuffled", shuffled)
	})
}
