package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// randomSample draws n latency-like values (lognormal-ish spread) from
// a fixed seed.
func randomSample(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = 100 * math.Exp(rng.NormFloat64())
	}
	return out
}

// sketchOf sketches a sample the one way production does: through the
// sample's ECDF, whose support counts stream the ascending sample.
func sketchOf(sample []float64, k int) *Sketch {
	return SketchFromECDF(MustECDF(sample), k)
}

// TestSketchLosslessBitEqual pins the property the force-sketch CI
// toggle leans on: while no compaction has occurred (n <= k), the
// compiled view is bit-identical to the exact ECDF of the same sample
// — same support, same cumulative probabilities, same counts.
func TestSketchLosslessBitEqual(t *testing.T) {
	sample := randomSample(800, 1)
	sample = append(sample, sample[10], sample[20], sample[20]) // ties
	s := sketchOf(sample, 1024)
	if len(s.levels) != 1 {
		t.Fatalf("n=%d <= k=1024 but %d levels", len(sample), len(s.levels))
	}
	if got := s.ErrorBound(); got != 0 {
		t.Fatalf("uncompacted sketch reports error bound %v", got)
	}
	exact, err := NewECDF(sample)
	if err != nil {
		t.Fatal(err)
	}
	view := s.View()
	if len(view.xs) != len(exact.xs) {
		t.Fatalf("support: view %d, exact %d", len(view.xs), len(exact.xs))
	}
	for i := range view.xs {
		if view.xs[i] != exact.xs[i] || view.cum[i] != exact.cum[i] || view.cnt[i] != exact.cnt[i] {
			t.Fatalf("index %d: view (%v,%v,%d) != exact (%v,%v,%d)",
				i, view.xs[i], view.cum[i], view.cnt[i], exact.xs[i], exact.cum[i], exact.cnt[i])
		}
	}
	// The integral kernels must agree bit for bit too — they only read
	// xs/cum/cnt, but this guards the kernel plumbing.
	for _, T := range []float64{50, 150, 900} {
		if a, b := view.IntegralOneMinusFPow(T, 1, 3), exact.IntegralOneMinusFPow(T, 1, 3); a != b {
			t.Fatalf("IntegralOneMinusFPow(%v): sketch %v, exact %v", T, a, b)
		}
		if a, b := view.IntegralUProdOneMinusF(T, 10, 1), exact.IntegralUProdOneMinusF(T, 10, 1); a != b {
			t.Fatalf("IntegralUProdOneMinusF(%v): sketch %v, exact %v", T, a, b)
		}
	}
}

// TestSketchWeightConservation: compaction keeps one survivor per pair
// at twice the weight, so total weight — and therefore N() and the
// view's count column — equals the number of observed values exactly.
func TestSketchWeightConservation(t *testing.T) {
	for _, n := range []int{1, 7, 1024, 1025, 10_000, 60_000} {
		s := sketchOf(randomSample(n, int64(n)), 256)
		if s.N() != n {
			t.Fatalf("n=%d: N() = %d", n, s.N())
		}
		total := 0
		for _, c := range s.View().cnt {
			total += c
		}
		if total != n {
			t.Fatalf("n=%d: view counts sum to %d", n, total)
		}
		if last := s.View().cum[len(s.View().cum)-1]; last != 1 {
			t.Fatalf("n=%d: cum[last] = %v", n, last)
		}
	}
}

// TestSketchRankError: on a heavily compacted sketch, every CDF
// evaluation stays within the self-reported ErrorBound of the exact
// empirical CDF, and the bound itself is small (O(log(n/k)/k)).
func TestSketchRankError(t *testing.T) {
	sample := randomSample(50_000, 2)
	s := sketchOf(sample, 256)
	exact, err := NewECDF(sample)
	if err != nil {
		t.Fatal(err)
	}
	eps := s.ErrorBound()
	if eps <= 0 || eps > 0.12 {
		t.Fatalf("k=256, n=50000: error bound %v outside (0, 0.12]", eps)
	}
	worst := 0.0
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		x := exact.Quantile(p)
		if d := math.Abs(s.View().Eval(x) - exact.Eval(x)); d > worst {
			worst = d
		}
	}
	if worst > eps {
		t.Fatalf("observed CDF error %v exceeds reported bound %v", worst, eps)
	}
	// Quantiles are within the bound in probability: F_exact of the
	// sketched quantile is within eps of the requested p.
	for _, p := range []float64{0.1, 0.5, 0.9} {
		if d := math.Abs(exact.Eval(s.View().Quantile(p)) - p); d > eps+1.0/float64(len(sample)) {
			t.Fatalf("quantile(%v): rank displacement %v > bound %v", p, d, eps)
		}
	}
}

// TestSketchDefaultKBound pins the headline sizing claim: at the
// default capacity a 10^5-value window sketches with a worst-case rank
// error under 3%.
func TestSketchDefaultKBound(t *testing.T) {
	s := sketchOf(randomSample(100_000, 3), 0)
	if s.k != DefaultSketchK {
		t.Fatalf("k = %d, want %d", s.k, DefaultSketchK)
	}
	if eps := s.ErrorBound(); eps >= 0.03 {
		t.Fatalf("error bound %v >= 0.03 at default k", eps)
	}
}

// TestSketchDeterminism: the compaction schedule is deterministic, so
// two sketches built from the same sequence are identical — levels,
// parities and compiled views all match bit for bit.
func TestSketchDeterminism(t *testing.T) {
	sample := randomSample(20_000, 8)
	a, b := sketchOf(sample, 512), sketchOf(sample, 512)
	if len(a.levels) != len(b.levels) || a.ErrorBound() != b.ErrorBound() {
		t.Fatalf("shape: (%d levels, ε %v) vs (%d levels, ε %v)", len(a.levels), a.ErrorBound(), len(b.levels), b.ErrorBound())
	}
	av, bv := a.View(), b.View()
	if len(av.xs) != len(bv.xs) {
		t.Fatalf("support: %d vs %d", len(av.xs), len(bv.xs))
	}
	for i := range av.xs {
		if av.xs[i] != bv.xs[i] || av.cum[i] != bv.cum[i] || av.cnt[i] != bv.cnt[i] {
			t.Fatalf("views diverge at %d", i)
		}
	}
}

// TestSketchFromECDF: the demotion constructor streams the flat sample
// out of the support counts, so it must equal the sketch the raw
// ascending sample streams into (the multiset round-trips exactly
// through the ECDF).
func TestSketchFromECDF(t *testing.T) {
	sample := randomSample(30_000, 9)
	sample = append(sample, sample[0], sample[0], sample[1]) // duplicates survive
	e, err := NewECDF(sample)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	direct := &Sketch{k: 256, levels: [][]float64{nil}, flip: []bool{false}, comps: []int64{0}}
	for _, x := range sorted {
		direct.levels[0] = append(direct.levels[0], x)
		direct.n++
		if len(direct.levels[0]) > direct.k {
			direct.compact()
		}
	}
	viaECDF := SketchFromECDF(e, 256)
	if direct.N() != viaECDF.N() {
		t.Fatalf("N: direct %d, via ECDF %d", direct.N(), viaECDF.N())
	}
	dv, ev := direct.View(), viaECDF.View()
	if len(dv.xs) != len(ev.xs) {
		t.Fatalf("support: %d vs %d", len(dv.xs), len(ev.xs))
	}
	for i := range dv.xs {
		if dv.xs[i] != ev.xs[i] || dv.cnt[i] != ev.cnt[i] {
			t.Fatalf("multisets diverge at %d", i)
		}
	}
}

// TestSketchMemBytes: the whole point — a compacted sketch of a large
// window is orders of magnitude smaller than the exact ECDF, and the
// estimate grows once the view compiles.
func TestSketchMemBytes(t *testing.T) {
	sample := randomSample(100_000, 10)
	s := sketchOf(sample, 0)
	e, err := NewECDF(sample)
	if err != nil {
		t.Fatal(err)
	}
	bare := s.MemBytes()
	if bare <= 0 {
		t.Fatalf("MemBytes = %d", bare)
	}
	s.View()
	withView := s.MemBytes()
	if withView <= bare {
		t.Fatalf("view did not grow the estimate: %d -> %d", bare, withView)
	}
	if ratio := float64(e.MemBytes()) / float64(withView); ratio < 4 {
		t.Fatalf("exact/sketch byte ratio %.1f < 4 (exact %d, sketch %d)", ratio, e.MemBytes(), withView)
	}
}

// TestSketchInterfaceParity exercises the query surface a sketch-tier
// model reads — the sketch's compiled view — on a compacted sketch
// against the exact ECDF with loose (error-bound-derived) tolerances,
// so a regression in any query is caught even where bit-equality
// cannot hold.
func TestSketchInterfaceParity(t *testing.T) {
	sample := randomSample(40_000, 11)
	s := sketchOf(sample, 512)
	v := s.View()
	e, err := NewECDF(sample)
	if err != nil {
		t.Fatal(err)
	}
	bound := s.ErrorBound()
	relClose := func(name string, got, want, tol float64) {
		t.Helper()
		denom := math.Abs(want)
		if denom < 1e-12 {
			denom = 1e-12
		}
		if math.Abs(got-want)/denom > tol {
			t.Fatalf("%s: sketch %v, exact %v (tol %v)", name, got, want, tol)
		}
	}
	relClose("Mean", v.Mean(), e.Mean(), 5*bound)
	relClose("Std", v.Std(), e.Std(), 10*bound)
	relClose("SampleQuantile(0.5)", v.SampleQuantile(0.5), e.SampleQuantile(0.5), 10*bound)
	T := e.Quantile(0.95)
	for b := 1; b <= 3; b++ {
		got := v.IntegralOneMinusFPow(T, 1, b)
		want := e.IntegralOneMinusFPow(T, 1, b)
		// |∂(1-F)^b/∂F| <= b, so the integral moves at most b·bound·T.
		if math.Abs(got-want) > float64(b)*bound*T+1e-9 {
			t.Fatalf("IntegralOneMinusFPow b=%d: |%v - %v| > %v", b, got, want, float64(b)*bound*T)
		}
	}
	plain, _ := v.IntegralProdBoth(T, T/10, 1)
	wantPlain := e.IntegralProdOneMinusF(T, T/10, 1)
	if math.Abs(plain-wantPlain) > 2*bound*T+1e-9 {
		t.Fatalf("IntegralProdOneMinusF: |%v - %v| > %v", plain, wantPlain, 2*bound*T)
	}
	// Rand consumes one uniform and returns a retained value.
	rng := rand.New(rand.NewSource(12))
	if x := v.Rand(rng); x < v.Min() || x > v.Max() {
		t.Fatalf("Rand %v outside [%v, %v]", x, v.Min(), v.Max())
	}
}
