package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) {
		t.Fatalf("%s: got %v, want %v", msg, got, want)
	}
	if math.IsNaN(want) {
		return
	}
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (tol %v, diff %v)", msg, got, want, tol, math.Abs(got-want))
	}
}

func TestRegularizedGammaPKnownValues(t *testing.T) {
	cases := []struct {
		a, x, want float64
	}{
		{1, 1, 1 - math.Exp(-1)}, // exponential CDF
		{1, 2, 1 - math.Exp(-2)},
		{0.5, 0.5, math.Erf(math.Sqrt(0.5))}, // chi-square(1) at x=1: P(0.5, 0.5)
		{2, 2, 1 - 3*math.Exp(-2)},           // Erlang-2
		{5, 5, 0.5595067149347875},           // reference value
		{10, 3, 0.0011024881301856177},       // series regime
		{3, 20, 1 - 221*math.Exp(-20)},       // CF regime: Q(3,20)=e^{-20}(1+20+200)
	}
	for _, c := range cases {
		almostEq(t, RegularizedGammaP(c.a, c.x), c.want, 1e-12, "P(a,x)")
	}
}

func TestRegularizedGammaEdgeCases(t *testing.T) {
	if got := RegularizedGammaP(2, 0); got != 0 {
		t.Fatalf("P(2,0) = %v, want 0", got)
	}
	if got := RegularizedGammaP(2, math.Inf(1)); got != 1 {
		t.Fatalf("P(2,inf) = %v, want 1", got)
	}
	if !math.IsNaN(RegularizedGammaP(-1, 1)) {
		t.Fatal("P(-1,1) should be NaN")
	}
}

// TestRegularizedGammaComplement: P is a probability everywhere, and
// its two halves — the series below x = a+1 and the complement of the
// upper continued fraction above — agree at the switch point.
func TestRegularizedGammaComplement(t *testing.T) {
	f := func(a, x float64) bool {
		a = 0.1 + math.Abs(math.Mod(a, 20))
		x = math.Abs(math.Mod(x, 50))
		p := RegularizedGammaP(a, x)
		series, cf := gammaPSeries(a, a+1), 1-gammaQContinuedFraction(a, a+1)
		return math.Abs(series-cf) < 1e-10 && p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRegularizedGammaPMonotoneInX(t *testing.T) {
	for _, a := range []float64{0.3, 1, 2.5, 10} {
		prev := -1.0
		for x := 0.0; x <= 40; x += 0.25 {
			p := RegularizedGammaP(a, x)
			if p < prev-1e-12 {
				t.Fatalf("P(%v, %v)=%v not monotone (prev %v)", a, x, p, prev)
			}
			prev = p
		}
	}
}

func TestDigammaKnownValues(t *testing.T) {
	const gamma = 0.5772156649015329 // Euler–Mascheroni
	almostEq(t, Digamma(1), -gamma, 1e-12, "psi(1)")
	almostEq(t, Digamma(2), 1-gamma, 1e-12, "psi(2)")
	almostEq(t, Digamma(0.5), -2*math.Ln2-gamma, 1e-12, "psi(1/2)")
	almostEq(t, Digamma(10), 2.251752589066721, 1e-12, "psi(10)")
}

func TestDigammaRecurrence(t *testing.T) {
	// ψ(x+1) = ψ(x) + 1/x.
	for _, x := range []float64{0.1, 0.7, 1.3, 4.2, 25} {
		almostEq(t, Digamma(x+1), Digamma(x)+1/x, 1e-10, "digamma recurrence")
	}
}

func TestTrigammaKnownValues(t *testing.T) {
	almostEq(t, Trigamma(1), math.Pi*math.Pi/6, 1e-10, "psi'(1)")
	almostEq(t, Trigamma(0.5), math.Pi*math.Pi/2, 1e-10, "psi'(1/2)")
	// Recurrence ψ'(x+1) = ψ'(x) - 1/x².
	for _, x := range []float64{0.3, 1.5, 7} {
		almostEq(t, Trigamma(x+1), Trigamma(x)-1/(x*x), 1e-10, "trigamma recurrence")
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-10, 1e-6, 0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999, 1 - 1e-9} {
		x := NormalQuantile(p)
		almostEq(t, NormalCDF(x), p, 1e-12, "Phi(Phi^-1(p))")
	}
	if NormalQuantile(0.5) != 0 {
		t.Fatalf("median should be exactly 0, got %v", NormalQuantile(0.5))
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Fatal("quantile limits wrong")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.1)) {
		t.Fatal("out-of-range p should be NaN")
	}
}

func TestNormalQuantileSymmetry(t *testing.T) {
	f := func(raw float64) bool {
		p := 0.5 + math.Mod(math.Abs(raw), 0.4999)
		return math.Abs(NormalQuantile(p)+NormalQuantile(1-p)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPowInt(t *testing.T) {
	if PowInt(2, 10) != 1024 || PowInt(2, 0) != 1 || PowInt(0.5, -2) != 4 {
		t.Fatal("PowInt basic values wrong")
	}
	for _, b := range []int{1, 2, 3, 5, 10, 17} {
		got := PowInt(0.73, b)
		want := math.Pow(0.73, float64(b))
		if math.Abs(got-want) > 1e-15*want {
			t.Fatalf("PowInt(0.73, %d) = %v, want %v", b, got, want)
		}
	}
	// The overflowed-conversion sentinel must terminate, not recurse.
	if got := PowInt(0.9, math.MinInt); got != math.Inf(1) {
		t.Fatalf("PowInt(0.9, MinInt) = %v, want +Inf", got)
	}
	if got := PowInt(2, math.MinInt); got != 0 {
		t.Fatalf("PowInt(2, MinInt) = %v, want 0", got)
	}
}
