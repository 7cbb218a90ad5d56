package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// ecdfEqual reports bit-exact equality of support, cumulative
// probabilities, counts and sample size.
func ecdfEqual(a, b *ECDF) bool {
	if a.n != b.n || len(a.xs) != len(b.xs) {
		return false
	}
	for i := range a.xs {
		if a.xs[i] != b.xs[i] || a.cum[i] != b.cum[i] || a.cnt[i] != b.cnt[i] {
			return false
		}
	}
	return true
}

func TestNewECDFFromSortedMatchesNewECDF(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		sample := make([]float64, n)
		for i := range sample {
			// Coarse grid to force duplicate support points.
			sample[i] = float64(rng.Intn(40)) * 3.5
		}
		ref, err := NewECDF(sample)
		if err != nil {
			t.Fatal(err)
		}
		sorted := append([]float64(nil), sample...)
		sort.Float64s(sorted)
		got, err := NewECDFFromSorted(sorted)
		if err != nil {
			t.Fatal(err)
		}
		if !ecdfEqual(ref, got) {
			t.Fatalf("trial %d: NewECDFFromSorted diverged from NewECDF", trial)
		}
	}
	if _, err := NewECDFFromSorted([]float64{2, 1}); err == nil {
		t.Fatal("unsorted sample accepted")
	}
	if _, err := NewECDFFromSorted([]float64{1, math.NaN()}); err == nil {
		t.Fatal("NaN sample accepted")
	}
	if _, err := NewECDFFromSorted([]float64{-1, 5, 9}); err == nil {
		t.Fatal("negative sample accepted")
	}
	if _, err := NewECDFFromSorted(nil); err != ErrEmpty {
		t.Fatalf("empty sample: got %v, want ErrEmpty", err)
	}
}

// TestMergeSortedEvictMatchesFlat is the merge ground-truth property:
// a random chain of append+evict steps stays bit-identical to NewECDF
// on the equivalent flat sample at every epoch.
func TestMergeSortedEvictMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		flat := make([]float64, 1+rng.Intn(50))
		for i := range flat {
			flat[i] = float64(rng.Intn(30)) * 2.25
		}
		cur, err := NewECDF(flat)
		if err != nil {
			t.Fatal(err)
		}
		// Keep the live multiset in a sorted slice for reference.
		sort.Float64s(flat)
		for step := 0; step < 20; step++ {
			add := make([]float64, rng.Intn(20))
			for i := range add {
				add[i] = float64(rng.Intn(30)) * 2.25
			}
			sort.Float64s(add)
			// Evict a random sorted subset of the live values.
			nEvict := rng.Intn(len(flat) + 1)
			if nEvict+len(add) >= len(flat)+len(add) { // keep at least one value
				nEvict = len(flat) + len(add) - 1
				if nEvict > len(flat) {
					nEvict = len(flat)
				}
			}
			perm := rng.Perm(len(flat))[:nEvict]
			sort.Ints(perm)
			evict := make([]float64, 0, nEvict)
			for _, i := range perm {
				evict = append(evict, flat[i])
			}
			next, err := cur.MergeSortedEvict(add, evict)
			if err != nil {
				t.Fatalf("trial %d step %d: merge: %v", trial, step, err)
			}
			// Reference: rebuild flat multiset and sort-construct.
			kept := flat[:0:0]
			ei := 0
			for _, v := range flat {
				if ei < len(evict) && evict[ei] == v {
					ei++
					continue
				}
				kept = append(kept, v)
			}
			flat = append(kept, add...)
			sort.Float64s(flat)
			ref, err := NewECDF(flat)
			if err != nil {
				t.Fatal(err)
			}
			if !ecdfEqual(ref, next) {
				t.Fatalf("trial %d step %d: merged ECDF diverged from flat rebuild", trial, step)
			}
			cur = next
		}
	}
}

func TestMergeSortedEvictErrors(t *testing.T) {
	e := MustECDF([]float64{1, 2, 2, 3})
	if _, err := e.MergeSortedEvict(nil, []float64{2.5}); err == nil {
		t.Fatal("evicting a value not in the sample succeeded")
	}
	if _, err := e.MergeSortedEvict(nil, []float64{2, 2, 2}); err == nil {
		t.Fatal("over-evicting a value succeeded")
	}
	if _, err := e.MergeSortedEvict(nil, []float64{1, 2, 2, 3}); err != ErrEmpty {
		t.Fatalf("evicting everything: got %v, want ErrEmpty", err)
	}
	if _, err := e.MergeSortedEvict([]float64{3, 1}, nil); err == nil {
		t.Fatal("unsorted add batch accepted")
	}
	if _, err := e.MergeSortedEvict([]float64{math.NaN()}, nil); err == nil {
		t.Fatal("NaN add batch accepted")
	}
	if _, err := e.MergeSortedEvict([]float64{-0.5, 4}, nil); err == nil {
		t.Fatal("negative add batch accepted")
	}
}

// TestPrewarmHandoff pins the warm-cache swap: TableKeys lists exactly
// the kernels queries built, Prewarm reproduces them on a successor,
// and prewarmed answers are bit-identical to lazily built ones.
func TestPrewarmHandoff(t *testing.T) {
	old := MustECDF([]float64{1, 3, 5, 7, 11})
	if got := old.TableKeys(); len(got) != 0 {
		t.Fatalf("fresh ECDF has kernels %v", got)
	}
	// Touch three integrands.
	old.IntegralOneMinusFPow(6, 0.9, 1)
	old.IntegralOneMinusFPow(6, 0.9, 5)
	old.IntegralUOneMinusFPow(6, 0.8, 2)
	keys := old.TableKeys()
	want := []TableKey{{S: 0.8, B: 2}, {S: 0.9, B: 1}, {S: 0.9, B: 5}}
	if len(keys) != len(want) {
		t.Fatalf("TableKeys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("TableKeys = %v, want %v", keys, want)
		}
	}

	next, err := old.MergeSortedEvict([]float64{2, 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	next.Prewarm(keys)
	if got := next.TableKeys(); len(got) != len(want) {
		t.Fatalf("prewarmed keys = %v, want %v", got, want)
	}
	// A cold twin must answer identically to the prewarmed copy.
	cold, err := old.MergeSortedEvict([]float64{2, 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range want {
		for _, T := range []float64{0.5, 4, 8, 20} {
			if a, b := next.IntegralOneMinusFPow(T, k.S, k.B), cold.IntegralOneMinusFPow(T, k.S, k.B); a != b {
				t.Fatalf("prewarmed integral diverged at (T=%v, s=%v, b=%d): %v vs %v", T, k.S, k.B, a, b)
			}
		}
	}
	// The sampler table warms separately (a model that never simulates
	// must not pay the O(n) build): Prewarm leaves it cold, SamplerWarm
	// reports the handoff state, and a prewarmed sampler's seeded draw
	// stream matches the cold path bit for bit.
	if next.SamplerWarm() {
		t.Fatal("Prewarm built the sampler table")
	}
	next.PrewarmSampler()
	if !next.SamplerWarm() {
		t.Fatal("PrewarmSampler did not mark the sampler warm")
	}
	rng1, rng2 := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		if a, b := next.Rand(rng1), cold.Rand(rng2); a != b {
			t.Fatalf("draw %d diverged: %v vs %v", i, a, b)
		}
	}
	if !cold.SamplerWarm() {
		t.Fatal("a draw did not mark the sampler warm")
	}
	// Nonsense keys are ignored, not built.
	next.Prewarm([]TableKey{{S: -1, B: 1}, {S: 0.5, B: 0}})
	if got := next.TableKeys(); len(got) != len(want) {
		t.Fatalf("nonsense keys were built: %v", got)
	}
}

func TestSampleQuantileMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(120)
		sample := make([]float64, n)
		for i := range sample {
			sample[i] = float64(rng.Intn(25)) * 1.75
		}
		e := MustECDF(sample)
		sorted := append([]float64(nil), sample...)
		sort.Float64s(sorted)
		for _, p := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
			if got, want := e.SampleQuantile(p), Percentile(sorted, p); got != want {
				t.Fatalf("trial %d: SampleQuantile(%v) = %v, want %v", trial, p, got, want)
			}
		}
	}
}
