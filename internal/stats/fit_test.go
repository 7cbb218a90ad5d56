package stats

import (
	"math"
	"math/rand"
	"testing"
)

func sampleFrom(d Distribution, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Rand(rng)
	}
	return out
}

func TestFitExponentialMLE(t *testing.T) {
	want := NewExponential(0.004)
	got, err := FitExponentialMLE(sampleFrom(want, 50000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Rate-want.Rate) > 0.05*want.Rate {
		t.Fatalf("rate %v, want ~%v", got.Rate, want.Rate)
	}
	if _, err := FitExponentialMLE(nil); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	if _, err := FitExponentialMLE([]float64{-1, -2}); err == nil {
		t.Fatal("want error for negative mean")
	}
}

func TestFitLogNormalMLE(t *testing.T) {
	want := NewLogNormal(6.1, 0.85)
	got, err := FitLogNormalMLE(sampleFrom(want, 50000, 2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Mu-want.Mu) > 0.02 || math.Abs(got.Sigma-want.Sigma) > 0.02 {
		t.Fatalf("got (%v, %v), want (%v, %v)", got.Mu, got.Sigma, want.Mu, want.Sigma)
	}
	if _, err := FitLogNormalMLE([]float64{1, -1}); err == nil {
		t.Fatal("want error for non-positive data")
	}
}

func TestFitWeibullMLE(t *testing.T) {
	for _, want := range []Weibull{NewWeibull(0.8, 450), NewWeibull(1.6, 300)} {
		got, err := FitWeibullMLE(sampleFrom(want, 50000, 3))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.K-want.K) > 0.05*want.K {
			t.Fatalf("shape %v, want ~%v", got.K, want.K)
		}
		if math.Abs(got.Lambda-want.Lambda) > 0.05*want.Lambda {
			t.Fatalf("scale %v, want ~%v", got.Lambda, want.Lambda)
		}
	}
}

func TestFitGammaMLE(t *testing.T) {
	want := NewGamma(2.5, 0.005)
	got, err := FitGammaMLE(sampleFrom(want, 50000, 4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Alpha-want.Alpha) > 0.05*want.Alpha {
		t.Fatalf("alpha %v, want ~%v", got.Alpha, want.Alpha)
	}
	if math.Abs(got.Beta-want.Beta) > 0.05*want.Beta {
		t.Fatalf("beta %v, want ~%v", got.Beta, want.Beta)
	}
	if _, err := FitGammaMLE([]float64{5, 5, 5}); err == nil {
		t.Fatal("constant sample should fail gamma MLE")
	}
}

func TestFitParetoMLE(t *testing.T) {
	want := NewPareto(150, 2.2)
	got, err := FitParetoMLE(sampleFrom(want, 50000, 5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Alpha-want.Alpha) > 0.05*want.Alpha {
		t.Fatalf("alpha %v, want ~%v", got.Alpha, want.Alpha)
	}
	if got.Xm > 151 || got.Xm < 150 {
		t.Fatalf("xm %v, want ~150", got.Xm)
	}
}

func TestFitBestPicksGeneratingFamily(t *testing.T) {
	// Data generated from a lognormal should rank lognormal first.
	sample := sampleFrom(NewLogNormal(6, 0.9), 20000, 6)
	results := FitBest(sample)
	if len(results) == 0 {
		t.Fatal("no fits returned")
	}
	if results[0].Name != "lognormal" {
		t.Fatalf("best fit = %s (loglik %v), want lognormal", results[0].Name, results[0].LogLik)
	}
	// Log-likelihoods must be sorted descending.
	for i := 1; i < len(results); i++ {
		if results[i].LogLik > results[i-1].LogLik {
			t.Fatal("results not sorted by log-likelihood")
		}
	}

	// And data from a Weibull should rank Weibull first.
	sample = sampleFrom(NewWeibull(0.9, 400), 20000, 7)
	results = FitBest(sample)
	if results[0].Name != "weibull" {
		t.Fatalf("best fit = %s, want weibull", results[0].Name)
	}
}

func TestLogLikelihoodOutOfSupport(t *testing.T) {
	if !math.IsInf(LogLikelihood(NewPareto(100, 2), []float64{50}), -1) {
		t.Fatal("below-support likelihood should be -Inf")
	}
}
