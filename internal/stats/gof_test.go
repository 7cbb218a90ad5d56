package stats

import (
	"math"
	"testing"
)

func TestKSStatisticZeroForPerfectFit(t *testing.T) {
	// The KS distance of a sample against its own empirical quantiles
	// is at most 1/n.
	d := NewUniform(0, 1)
	n := 1000
	sample := make([]float64, n)
	for i := range sample {
		sample[i] = (float64(i) + 0.5) / float64(n)
	}
	if ks := KSStatistic(sample, d); ks > 1.0/float64(n) {
		t.Fatalf("KS = %v, want <= %v", ks, 1.0/float64(n))
	}
}

func TestKSStatisticDetectsMismatch(t *testing.T) {
	sample := sampleFrom(NewLogNormal(6, 1), 5000, 9)
	goodKS := KSStatistic(sample, NewLogNormal(6, 1))
	badKS := KSStatistic(sample, NewExponential(1.0/600))
	if goodKS >= badKS {
		t.Fatalf("good fit KS %v should be below bad fit KS %v", goodKS, badKS)
	}
	if badKS < 0.05 {
		t.Fatalf("mismatched fit should have large KS, got %v", badKS)
	}
}

func TestKSPValueRange(t *testing.T) {
	if p := KSPValue(0.001, 100); p < 0.99 {
		t.Fatalf("tiny KS should give p~1, got %v", p)
	}
	if p := KSPValue(0.5, 1000); p > 1e-10 {
		t.Fatalf("huge KS should give p~0, got %v", p)
	}
	if p := KSPValue(0, 10); p != 1 {
		t.Fatalf("zero KS p-value = %v", p)
	}
	// Monotone decreasing in the statistic.
	prev := 1.0
	for ks := 0.01; ks < 0.3; ks += 0.01 {
		p := KSPValue(ks, 200)
		if p > prev+1e-12 {
			t.Fatalf("p-value not monotone at ks=%v", ks)
		}
		prev = p
	}
}

func TestSummaryAndHelpers(t *testing.T) {
	sample := []float64{4, 1, 3, 2, 5}
	s := Summarize(sample)
	if s.N != 5 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("bad summary %+v", s)
	}
	almostEq(t, s.Mean, 3, 1e-12, "mean")
	almostEq(t, s.Median, 3, 1e-12, "median")
	almostEq(t, s.Var, 2, 1e-12, "var")

	if got := Summarize(nil); got.N != 0 {
		t.Fatal("empty summary should be zero")
	}
}

func TestPercentilePanicsAndEdges(t *testing.T) {
	mustPanic(t, func() { Percentile(nil, 0.5) })
	s := []float64{10, 20, 30}
	almostEq(t, Percentile(s, 0), 10, 1e-15, "p0")
	almostEq(t, Percentile(s, 1), 30, 1e-15, "p1")
	almostEq(t, Percentile(s, 0.5), 20, 1e-15, "p50")
	almostEq(t, Percentile(s, 0.25), 15, 1e-12, "p25 interpolated")
}

func TestIntegrators(t *testing.T) {
	f := func(x float64) float64 { return x * x }
	almostEq(t, AdaptiveSimpson(f, 0, 3, 1e-12), 9, 1e-12, "adaptive x² exact")
	almostEq(t, AdaptiveSimpson(math.Sin, 0, math.Pi, 1e-12), 2, 1e-9, "adaptive sin")
	if AdaptiveSimpson(f, 2, 2, 1e-9) != 0 {
		t.Fatal("zero-width integrals should be 0")
	}
	mustPanic(t, func() { AdaptiveSimpson(f, 3, 1, 1e-9) })
}
