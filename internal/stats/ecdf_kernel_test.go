package stats

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// randomECDF draws an ECDF with duplicates, point masses, and
// occasional zero support points — the shapes real latency traces
// produce.
func randomECDF(rng *rand.Rand) *ECDF {
	n := 1 + rng.Intn(200)
	sample := make([]float64, n)
	for i := range sample {
		switch rng.Intn(10) {
		case 0:
			sample[i] = 0 // point mass at zero
		case 1, 2:
			sample[i] = float64(rng.Intn(20)) * 7.5 // duplicates
		default:
			sample[i] = rng.Float64() * 1000
		}
	}
	return MustECDF(sample)
}

// kernelQueryPoints builds the T probes the issue calls out: on
// support points, between them, below the support, above it, and the
// exact edges 0 / Min / Max.
func kernelQueryPoints(e *ECDF, rng *rand.Rand) []float64 {
	xs := e.Support()
	Ts := []float64{0, -1, e.Min(), e.Max(), e.Max() + 13.7, e.Min() / 2}
	for k := 0; k < 8; k++ {
		i := rng.Intn(len(xs))
		Ts = append(Ts, xs[i]) // exactly on a support point
		if i+1 < len(xs) {
			Ts = append(Ts, 0.5*(xs[i]+xs[i+1])) // strictly between
		}
	}
	Ts = append(Ts, rng.Float64()*1200)
	return Ts
}

// TestBatchMatchesScalarBitwise pins the stronger contract the swept
// grid scans rely on: batch answers equal the scalar kernel answers
// bit for bit on ascending grids (and still exactly on unsorted ones
// via the fallback path).
func TestBatchMatchesScalarBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 40; trial++ {
		e := randomECDF(rng)
		s := 1 - rng.Float64()*0.4
		// Ascending grid straddling the support, with duplicates.
		g := 1 + rng.Intn(60)
		Ts := make([]float64, 0, g+4)
		lo, hi := -5.0, e.Max()*1.3+1
		for i := 0; i < g; i++ {
			Ts = append(Ts, lo+(hi-lo)*float64(i)/float64(g))
		}
		Ts = append(Ts, e.Max(), e.Max(), hi, hi)
		sort.Float64s(Ts)
		for _, b := range []int{1, 3, 10} {
			batch := e.IntegralOneMinusFPowBatch(Ts, s, b)
			batchU := e.IntegralUOneMinusFPowBatch(Ts, s, b)
			for i, T := range Ts {
				if want := e.IntegralOneMinusFPow(T, s, b); batch[i] != want {
					t.Fatalf("pow batch[%d]: T=%v b=%d got %v want %v", i, T, b, batch[i], want)
				}
				if want := e.IntegralUOneMinusFPow(T, s, b); batchU[i] != want {
					t.Fatalf("upow batch[%d]: T=%v b=%d got %v want %v", i, T, b, batchU[i], want)
				}
			}
		}
		shift := rng.Float64() * e.Max()
		p, u := e.IntegralProdBothBatch(Ts, shift, s)
		for i, T := range Ts {
			if want := e.IntegralProdOneMinusF(T, shift, s); p[i] != want {
				t.Fatalf("prod batch[%d]: T=%v shift=%v got %v want %v", i, T, shift, p[i], want)
			}
			if want := e.IntegralUProdOneMinusF(T, shift, s); u[i] != want {
				t.Fatalf("uprod batch[%d]: T=%v shift=%v got %v want %v", i, T, shift, u[i], want)
			}
		}
		// Unsorted input: the fallback path must still be exact.
		unsorted := []float64{Ts[len(Ts)-1], Ts[0], e.Max() / 2, e.Max() / 3}
		ub := e.IntegralOneMinusFPowBatch(unsorted, s, 2)
		up, uu := e.IntegralProdBothBatch(unsorted, shift, s)
		for i, T := range unsorted {
			if want := e.IntegralOneMinusFPow(T, s, 2); ub[i] != want {
				t.Fatalf("unsorted pow batch[%d] mismatch", i)
			}
			if want := e.IntegralProdOneMinusF(T, shift, s); up[i] != want {
				t.Fatalf("unsorted prod batch[%d] mismatch", i)
			}
			if want := e.IntegralUProdOneMinusF(T, shift, s); uu[i] != want {
				t.Fatalf("unsorted uprod batch[%d] mismatch", i)
			}
		}
	}
}

// TestBatchColumnsMatchScalar: the delayed ratio search batches a t0
// column followed by one ascending w = (r-1)·t0 column per ratio, so
// each column starts below where the last one ended. The sweep
// re-anchors at each such entry and must still equal the scalar
// method at every entry.
func TestBatchColumnsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 40; trial++ {
		e := randomECDF(rng)
		s := 1 - rng.Float64()*0.4
		n := 1 + rng.Intn(50)
		lo, hi := e.Max()*1e-3, e.Max()*(0.5+rng.Float64())
		var Ts []float64
		for _, r := range []float64{2, 1.1, 1.5, 1.9, 1.3} { // r = 2: the t0 column
			for i := 0; i < n; i++ {
				t0 := lo + (hi-lo)*float64(i)/float64(n)
				Ts = append(Ts, r*t0-t0)
			}
		}
		for _, b := range []int{1, 3} {
			batch := e.IntegralOneMinusFPowBatch(Ts, s, b)
			batchU := e.IntegralUOneMinusFPowBatch(Ts, s, b)
			for i, T := range Ts {
				if want := e.IntegralOneMinusFPow(T, s, b); batch[i] != want {
					t.Fatalf("pow batch[%d]: T=%v b=%d got %v want %v", i, T, b, batch[i], want)
				}
				if want := e.IntegralUOneMinusFPow(T, s, b); batchU[i] != want {
					t.Fatalf("upow batch[%d]: T=%v b=%d got %v want %v", i, T, b, batchU[i], want)
				}
			}
		}
	}
}

// TestRandMatchesQuantileStream pins the sampler acceptance criterion:
// the O(1) table-guided Rand must map every uniform to exactly the
// same support point as the historical Quantile(rng.Float64()) path,
// so seeded Monte Carlo streams are bit-identical before and after the
// sampler swap.
func TestRandMatchesQuantileStream(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 25; trial++ {
		e := randomECDF(rng)
		seed := rng.Int63()
		r1 := rand.New(rand.NewSource(seed))
		r2 := rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			got := e.Rand(r1)
			want := e.Quantile(r2.Float64())
			if got != want {
				t.Fatalf("draw %d: Rand %v != Quantile path %v", i, got, want)
			}
		}
	}
}

// fixedSource makes rand.Float64 yield one chosen value u: Go's
// Float64 is float64(Int63())/2⁶³, and every u here has u·2⁶³ exactly
// representable.
type fixedSource struct{ v int64 }

func (f *fixedSource) Int63() int64 { return f.v }
func (f *fixedSource) Seed(int64)   {}

func fixedRand(u float64) *rand.Rand {
	return rand.New(&fixedSource{v: int64(math.Ldexp(u, 63))})
}

// TestRandExactUniforms drives the sampler with handcrafted uniforms
// sitting exactly on cum boundaries, where the bucket walk must agree
// with the binary search of Quantile.
func TestRandExactUniforms(t *testing.T) {
	e := MustECDF([]float64{5, 5, 5, 9})
	// cum = {0.75, 1}.
	for _, tc := range []struct {
		u    float64
		want float64
	}{
		{0, 5},
		{0.5, 5},
		{math.Nextafter(0.75, 0), 5},
		{0.75, 5},
		{math.Nextafter(0.75, 1), 9},
		{math.Nextafter(1, 0), 9},
	} {
		if got := e.Rand(fixedRand(tc.u)); got != tc.want {
			t.Fatalf("Rand at u=%v = %v, want %v", tc.u, got, tc.want)
		}
		if q := e.Quantile(tc.u); q != tc.want {
			t.Fatalf("Quantile(%v) = %v, want %v", tc.u, q, tc.want)
		}
	}
}

// TestQuantileInvariantEdges pins the documented invariant
// cum[last] == 1: Quantile(1) and Quantile(nextafter(1, 0)) both
// return Max (the search never needs the historical out-of-range
// clamp).
func TestQuantileInvariantEdges(t *testing.T) {
	for _, e := range []*ECDF{
		MustECDF([]float64{1, 2}),
		MustECDF([]float64{3}),
		randomECDF(rand.New(rand.NewSource(5))),
	} {
		if got := e.Quantile(1); got != e.Max() {
			t.Fatalf("Quantile(1) = %v, want Max %v", got, e.Max())
		}
		if got := e.Quantile(math.Nextafter(1, 0)); got != e.Max() {
			t.Fatalf("Quantile(1-ulp) = %v, want Max %v", got, e.Max())
		}
		if got := e.Quantile(math.Nextafter(1, 2)); got != e.Max() {
			t.Fatalf("Quantile(1+ulp) = %v, want Max %v", got, e.Max())
		}
	}
}

// TestKernelTablesConcurrent exercises the lazy kernel and sampler
// tables from 8 goroutines (run under -race in CI): concurrent first
// touches of multiple (s, b) keys and draws must all agree bit for bit
// with a twin ECDF queried sequentially.
func TestKernelTablesConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	e := randomECDF(rng)
	s := 0.85
	Ts := kernelQueryPoints(e, rng)
	type ref struct{ pow, upow, prod, uprod float64 }
	// Sequential ground truth from a twin with its own caches, before
	// any table of e exists.
	twin := &ECDF{xs: e.xs, cum: e.cum, cnt: e.cnt, n: e.n}
	want := make(map[int][]ref)
	for _, b := range []int{1, 2, 5, 10} {
		rs := make([]ref, len(Ts))
		for i, T := range Ts {
			rs[i] = ref{
				pow:   twin.IntegralOneMinusFPow(T, s, b),
				upow:  twin.IntegralUOneMinusFPow(T, s, b),
				prod:  twin.IntegralProdOneMinusF(T, 40, s),
				uprod: twin.IntegralUProdOneMinusF(T, 40, s),
			}
		}
		want[b] = rs
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			lrng := rand.New(rand.NewSource(int64(1000 + g)))
			for rep := 0; rep < 50; rep++ {
				b := []int{1, 2, 5, 10}[(g+rep)%4]
				for i, T := range Ts {
					if got := e.IntegralOneMinusFPow(T, s, b); got != want[b][i].pow {
						errs <- errMismatch
						return
					}
					if got := e.IntegralUOneMinusFPow(T, s, b); got != want[b][i].upow {
						errs <- errMismatch
						return
					}
					if got := e.IntegralProdOneMinusF(T, 40, s); got != want[b][i].prod {
						errs <- errMismatch
						return
					}
					if got := e.IntegralUProdOneMinusF(T, 40, s); got != want[b][i].uprod {
						errs <- errMismatch
						return
					}
				}
				e.Rand(lrng)
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

var errMismatch = errorString("concurrent kernel query diverged from the sequential twin")

type errorString string

func (e errorString) Error() string { return string(e) }
