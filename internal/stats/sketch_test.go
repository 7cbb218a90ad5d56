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

// TestSketchLosslessBitEqual pins the property the force-sketch CI
// toggle leans on: while no compaction has occurred (n <= k), the
// compiled view is bit-identical to the exact ECDF of the same sample
// — same support, same cumulative probabilities, same counts.
func TestSketchLosslessBitEqual(t *testing.T) {
	sample := randomSample(800, 1)
	sample = append(sample, sample[10], sample[20], sample[20]) // ties
	s, err := NewSketch(sample, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if s.Compactions() != 0 {
		t.Fatalf("n=%d <= k=1024 but %d compactions", len(sample), s.Compactions())
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
	// xs/cum/cnt, but this guards the counted flag and kernel plumbing.
	for _, T := range []float64{50, 150, 900} {
		if a, b := s.IntegralOneMinusFPow(T, 1, 3), exact.IntegralOneMinusFPow(T, 1, 3); a != b {
			t.Fatalf("IntegralOneMinusFPow(%v): sketch %v, exact %v", T, a, b)
		}
		if a, b := s.IntegralUProdOneMinusF(T, 10, 1), exact.IntegralUProdOneMinusF(T, 10, 1); a != b {
			t.Fatalf("IntegralUProdOneMinusF(%v): sketch %v, exact %v", T, a, b)
		}
	}
}

// TestSketchWeightConservation: compaction keeps one survivor per pair
// at twice the weight, so total weight — and therefore N() and the
// view's count column — equals the number of observed values exactly.
func TestSketchWeightConservation(t *testing.T) {
	for _, n := range []int{1, 7, 1024, 1025, 10_000, 60_000} {
		s, err := NewSketch(randomSample(n, int64(n)), 256)
		if err != nil {
			t.Fatal(err)
		}
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
	s, err := NewSketch(sample, 256)
	if err != nil {
		t.Fatal(err)
	}
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
		if d := math.Abs(s.Eval(x) - exact.Eval(x)); d > worst {
			worst = d
		}
	}
	if worst > eps {
		t.Fatalf("observed CDF error %v exceeds reported bound %v", worst, eps)
	}
	// Quantiles are within the bound in probability: F_exact of the
	// sketched quantile is within eps of the requested p.
	for _, p := range []float64{0.1, 0.5, 0.9} {
		if d := math.Abs(exact.Eval(s.Quantile(p)) - p); d > eps+1.0/float64(len(sample)) {
			t.Fatalf("quantile(%v): rank displacement %v > bound %v", p, d, eps)
		}
	}
}

// TestSketchDefaultKBound pins the headline sizing claim: at the
// default capacity a 10^5-value window sketches with a worst-case rank
// error under 3%.
func TestSketchDefaultKBound(t *testing.T) {
	s, err := NewSketch(randomSample(100_000, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.k != DefaultSketchK {
		t.Fatalf("k = %d, want %d", s.k, DefaultSketchK)
	}
	if eps := s.ErrorBound(); eps >= 0.03 {
		t.Fatalf("error bound %v >= 0.03 at default k", eps)
	}
}

// TestSketchMergeEvictExactWhileUncompacted: before any compaction the
// sketch tracks the rolling multiset exactly, so a merge+evict epoch
// step lands bit-equal to the ECDF merge of the same window.
func TestSketchMergeEvictExactWhileUncompacted(t *testing.T) {
	base := randomSample(400, 4)
	sort.Float64s(base)
	add := randomSample(50, 5)
	sort.Float64s(add)
	evict := append([]float64(nil), base[:30]...) // oldest values leave

	s, err := SketchFromSorted(base, 1024)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := s.MergeSortedEvict(add, evict)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewECDFFromSorted(base)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := e.MergeSortedEvict(add, evict)
	if err != nil {
		t.Fatal(err)
	}
	if s2.N() != e2.N() {
		t.Fatalf("N: sketch %d, ecdf %d", s2.N(), e2.N())
	}
	v := s2.View()
	if len(v.xs) != len(e2.xs) {
		t.Fatalf("support: sketch %d, ecdf %d", len(v.xs), len(e2.xs))
	}
	for i := range v.xs {
		if v.xs[i] != e2.xs[i] || v.cum[i] != e2.cum[i] {
			t.Fatalf("index %d: sketch (%v,%v) != ecdf (%v,%v)", i, v.xs[i], v.cum[i], e2.xs[i], e2.cum[i])
		}
	}
	// The receiver is an immutable epoch: s still describes the base.
	if s.N() != len(base) {
		t.Fatalf("receiver mutated: N = %d, want %d", s.N(), len(base))
	}
}

// TestSketchMergeEvictRandomized drives a long randomized epoch chain
// through a compacted sketch and pins the structural invariants at
// every step: weight accounting (evictions only subtract when a
// weight-1 copy was actually removed), monotone ascending view with
// cum[last] = 1, and the error bound against the grow-only multiset
// the sketch actually retains.
func TestSketchMergeEvictRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	window := randomSample(4000, 7)
	s, err := NewSketch(window, 128)
	if err != nil {
		t.Fatal(err)
	}
	sort.Float64s(window)
	for step := 0; step < 40; step++ {
		add := randomSample(100+rng.Intn(200), int64(1000+step))
		sort.Float64s(add)
		// Evict a random slice of current window values plus a few
		// values the window never held (must be silently ignored).
		k := rng.Intn(80)
		lo := rng.Intn(len(window) - k)
		evict := append([]float64(nil), window[lo:lo+k]...)
		evict = append(evict, -1, 1e12)
		sort.Float64s(evict)

		before := s.N()
		next, err := s.MergeSortedEvict(add, evict)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		removed := before + len(add) - next.N()
		if removed < 0 || removed > k {
			t.Fatalf("step %d: removed %d outside [0, %d]", step, removed, k)
		}
		v := next.View()
		for i := 1; i < len(v.xs); i++ {
			if !(v.xs[i] > v.xs[i-1]) || v.cum[i] < v.cum[i-1] {
				t.Fatalf("step %d: view not monotone at %d", step, i)
			}
		}
		if v.cum[len(v.cum)-1] != 1 {
			t.Fatalf("step %d: cum[last] = %v", step, v.cum[len(v.cum)-1])
		}
		if eps := next.ErrorBound(); eps < 0 || eps > 1 {
			t.Fatalf("step %d: error bound %v", step, eps)
		}
		window = append(window, add...)
		sort.Float64s(window)
		s = next
	}
}

// TestSketchDeterminism: the compaction schedule is deterministic, so
// two sketches built from the same sequence are identical — levels,
// parities and compiled views all match bit for bit.
func TestSketchDeterminism(t *testing.T) {
	sample := randomSample(20_000, 8)
	a, err := NewSketch(sample, 512)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSketch(sample, 512)
	if err != nil {
		t.Fatal(err)
	}
	if a.Levels() != b.Levels() || a.Compactions() != b.Compactions() {
		t.Fatalf("shape: (%d,%d) vs (%d,%d)", a.Levels(), a.Compactions(), b.Levels(), b.Compactions())
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
// out of the counted support, so it must equal the sketch of the raw
// sample (the multiset round-trips exactly through the ECDF).
func TestSketchFromECDF(t *testing.T) {
	sample := randomSample(30_000, 9)
	sample = append(sample, sample[0], sample[0], sample[1]) // duplicates survive
	e, err := NewECDF(sample)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewSketch(sample, 256)
	if err != nil {
		t.Fatal(err)
	}
	viaECDF, err := SketchFromECDF(e, 256)
	if err != nil {
		t.Fatal(err)
	}
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
	// Weighted (Restrict-built) ECDFs have no flat sample to stream.
	r, err := e.Restrict(e.Quantile(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SketchFromECDF(r, 256); err == nil {
		t.Fatal("SketchFromECDF accepted a weighted ECDF")
	}
}

// TestSketchMemBytes: the whole point — a compacted sketch of a large
// window is orders of magnitude smaller than the exact ECDF, and the
// estimate grows once the view compiles.
func TestSketchMemBytes(t *testing.T) {
	sample := randomSample(100_000, 10)
	s, err := NewSketch(sample, 0)
	if err != nil {
		t.Fatal(err)
	}
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

// TestSketchInterfaceParity exercises the full EmpiricalDistribution
// surface on a compacted sketch against the exact ECDF with loose
// (error-bound-derived) tolerances, so a regression in any delegated
// method is caught even where bit-equality cannot hold.
func TestSketchInterfaceParity(t *testing.T) {
	sample := randomSample(40_000, 11)
	s, err := NewSketch(sample, 512)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewECDF(sample)
	if err != nil {
		t.Fatal(err)
	}
	eps := s.ErrorBound()
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
	relClose("Mean", s.Mean(), e.Mean(), 5*eps)
	relClose("Std", s.Std(), e.Std(), 10*eps)
	relClose("SampleQuantile(0.5)", s.SampleQuantile(0.5), e.SampleQuantile(0.5), 10*eps)
	T := e.Quantile(0.95)
	for b := 1; b <= 3; b++ {
		got := s.IntegralOneMinusFPow(T, 1, b)
		want := e.IntegralOneMinusFPow(T, 1, b)
		// |∂(1-F)^b/∂F| <= b, so the integral moves at most b·eps·T.
		if math.Abs(got-want) > float64(b)*eps*T+1e-9 {
			t.Fatalf("IntegralOneMinusFPow b=%d: |%v - %v| > %v", b, got, want, float64(b)*eps*T)
		}
		gb := s.IntegralOneMinusFPowBatch([]float64{T / 2, T}, 1, b)
		if gb[1] != got {
			t.Fatalf("batch/scalar mismatch at b=%d", b)
		}
	}
	plain, uw := s.IntegralProdBoth(T, T/10, 1)
	if p2 := s.IntegralProdOneMinusF(T, T/10, 1); p2 != plain {
		t.Fatalf("ProdBoth plain %v != IntegralProdOneMinusF %v", plain, p2)
	}
	if u2 := s.IntegralUProdOneMinusF(T, T/10, 1); u2 != uw {
		t.Fatalf("ProdBoth u %v != IntegralUProdOneMinusF %v", uw, u2)
	}
	wantPlain := e.IntegralProdOneMinusF(T, T/10, 1)
	if math.Abs(plain-wantPlain) > 2*eps*T+1e-9 {
		t.Fatalf("IntegralProdOneMinusF: |%v - %v| > %v", plain, wantPlain, 2*eps*T)
	}
	// Rand consumes one uniform and returns a retained value.
	rng := rand.New(rand.NewSource(12))
	v := s.Rand(rng)
	if v < s.Min() || v > s.Max() {
		t.Fatalf("Rand %v outside [%v, %v]", v, s.Min(), s.Max())
	}
}

// TestSketchEmptyAndErrors covers the constructor error surface.
func TestSketchEmptyAndErrors(t *testing.T) {
	if _, err := NewSketch(nil, 0); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, err := NewSketch([]float64{1, math.NaN()}, 0); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := SketchFromSorted([]float64{2, 1}, 0); err == nil {
		t.Fatal("descending sample accepted")
	}
	s, err := NewSketch([]float64{5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MergeSortedEvict(nil, []float64{5}); err == nil {
		t.Fatal("evicting the last value must report ErrEmpty")
	}
}
