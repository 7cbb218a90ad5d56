package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultSketchK is the per-level compactor capacity used when callers
// pass k <= 0. At k = 1024 a window of 10^5 latencies compacts into
// roughly log2(n/k) ≈ 7 levels — some 60 KB of resident state against
// the megabytes an exact counted ECDF (support, kernels, sampler)
// holds — with a worst-case rank error well under 1%.
const DefaultSketchK = 1024

// Sketch is a mergeable KLL-style quantile sketch of a latency sample:
// a stack of sorted compactor levels where every item at level i
// carries weight 2^i. It is the approximate, bounded-error backend of
// the EmpiricalDistribution interface — the representation the
// gridstratd registry demotes cold models to when byte pressure makes
// the exact counted ECDF too expensive to keep resident.
//
// Compaction is deterministic: when a level overflows its capacity k,
// adjacent pairs are halved by keeping one survivor per pair at twice
// the weight, with the surviving parity alternating per level between
// compactions so the rank errors of successive compactions cancel in
// expectation. An odd leftover stays at its level, so total weight is
// conserved exactly: N() is always the true number of observed values.
//
// Queries are answered through a lazily compiled counted-ECDF view of
// the (value, weight) multiset, so every exact-integral kernel, batch
// sweep, sampler table and warm-swap hook of the ECDF is reused
// verbatim. While no compaction has occurred (n <= k) the view is
// bit-identical to the exact ECDF of the same sample — the property
// the force-demote CI toggle leans on.
//
// Like the ECDF's merge path, a Sketch is an immutable epoch:
// MergeSorted and MergeSortedEvict return a new Sketch and never
// modify the receiver, so a reader holding the old epoch is never
// raced. A Sketch is safe for concurrent use after construction.
type Sketch struct {
	k      int         // per-level compactor capacity
	n      int64       // total weight == number of observed values
	levels [][]float64 // levels[i]: ascending values of weight 2^i
	flip   []bool      // per-level alternating survivor parity
	comps  []int64     // per-level compaction counts (error bound)

	viewOnce  sync.Once
	viewBuilt atomic.Bool
	view      *ECDF
}

// NewSketch builds a Sketch of sample (unweighted, any order) with
// per-level capacity k (DefaultSketchK when k <= 0). The input slice
// is not modified. It returns ErrEmpty for an empty sample and an
// error if any value is NaN.
func NewSketch(sample []float64, k int) (*Sketch, error) {
	if len(sample) == 0 {
		return nil, ErrEmpty
	}
	xs := append([]float64(nil), sample...)
	for _, v := range xs {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("stats: NaN in sample")
		}
	}
	sort.Float64s(xs)
	return sketchFromSortedTrusted(xs, k), nil
}

// SketchFromSorted builds a Sketch of an already ascending sample. The
// input slice is not modified. It returns ErrEmpty for an empty sample
// and an error if the sample contains NaN or is not ascending.
func SketchFromSorted(sorted []float64, k int) (*Sketch, error) {
	if len(sorted) == 0 {
		return nil, ErrEmpty
	}
	if err := checkAscending("sample", sorted); err != nil {
		return nil, err
	}
	return sketchFromSortedTrusted(append([]float64(nil), sorted...), k), nil
}

// SketchFromECDF builds a Sketch of the flat sample behind a counted
// ECDF — the demotion constructor, which never rematerializes the
// sample: values are streamed from the support counts in ascending
// order. It returns an error for weighted (Restrict-built) ECDFs,
// whose fractional masses have no flat sample to sketch.
func SketchFromECDF(e *ECDF, k int) (*Sketch, error) {
	if !e.Counted() {
		return nil, fmt.Errorf("stats: sketch of a weighted ECDF (built by Restrict)")
	}
	s := emptySketch(k)
	for i, x := range e.xs {
		for c := 0; c < e.cnt[i]; c++ {
			s.levels[0] = append(s.levels[0], x)
			s.n++
			if len(s.levels[0]) > s.k {
				s.compact()
			}
		}
	}
	return s, nil
}

func emptySketch(k int) *Sketch {
	if k <= 0 {
		k = DefaultSketchK
	}
	return &Sketch{k: k, levels: [][]float64{nil}, flip: []bool{false}, comps: []int64{0}}
}

func sketchFromSortedTrusted(sorted []float64, k int) *Sketch {
	s := emptySketch(k)
	for _, x := range sorted {
		s.levels[0] = append(s.levels[0], x)
		s.n++
		if len(s.levels[0]) > s.k {
			s.compact()
		}
	}
	return s
}

// compact halves every overflowing level, bottom-up. One pass: pair
// adjacent items of an overflowing level, keep one survivor per pair
// at the alternating parity, promote survivors (weight doubled) into
// the next level's sorted order, and leave an odd leftover in place —
// weight is conserved exactly at every step.
func (s *Sketch) compact() {
	for i := 0; i < len(s.levels); i++ {
		if len(s.levels[i]) <= s.k {
			continue
		}
		lv := s.levels[i]
		m := len(lv)
		keepOdd := m%2 == 1
		if keepOdd {
			m-- // the last, largest item stays at this level
		}
		off := 0
		if s.flip[i] {
			off = 1
		}
		s.flip[i] = !s.flip[i]
		s.comps[i]++
		survivors := make([]float64, 0, m/2)
		for p := 0; p+1 < m; p += 2 {
			survivors = append(survivors, lv[p+off])
		}
		if keepOdd {
			s.levels[i] = append(lv[:0], lv[m])
		} else {
			s.levels[i] = lv[:0]
		}
		if i+1 == len(s.levels) {
			s.levels = append(s.levels, nil)
			s.flip = append(s.flip, false)
			s.comps = append(s.comps, 0)
		}
		s.levels[i+1] = mergeAscending(s.levels[i+1], survivors)
	}
}

// mergeAscending merges two ascending slices into a new ascending
// slice (stable: a's items precede equal b items).
func mergeAscending(a, b []float64) []float64 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append([]float64(nil), b...)
	}
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// clone returns a deep copy of the compactor stack with no compiled
// view — the start of the next immutable epoch.
func (s *Sketch) clone() *Sketch {
	out := &Sketch{
		k:      s.k,
		n:      s.n,
		levels: make([][]float64, len(s.levels)),
		flip:   append([]bool(nil), s.flip...),
		comps:  append([]int64(nil), s.comps...),
	}
	for i, lv := range s.levels {
		out.levels[i] = append([]float64(nil), lv...)
	}
	return out
}

// MergeSorted returns the Sketch extended by an ascending batch — the
// next epoch of a growing window, mirroring ECDF.MergeSorted. The
// receiver is not modified.
func (s *Sketch) MergeSorted(add []float64) (*Sketch, error) {
	return s.MergeSortedEvict(add, nil)
}

// MergeSortedEvict returns the Sketch plus the ascending slice add and
// minus the ascending slice evict — one rolling-window step under the
// same signature as ECDF.MergeSortedEvict, so the ingest path drives
// either backend through one call site. The receiver is not modified.
//
// Eviction is necessarily approximate: a value can only be removed
// while it still exists as a weight-1 item at level 0. Values already
// folded into a compacted survivor are silently retained — the sketch
// is a grow-only summary of everything it has seen, and the registry
// treats the WAL/Rolling window (not the sketch) as the source of
// truth, so exactness is always recoverable by replay. Evictions that
// miss therefore do not error; they are simply ignored.
func (s *Sketch) MergeSortedEvict(add, evict []float64) (*Sketch, error) {
	if err := checkAscending("add", add); err != nil {
		return nil, err
	}
	if err := checkAscending("evict", evict); err != nil {
		return nil, err
	}
	out := s.clone()
	if len(evict) > 0 {
		lv := out.levels[0]
		kept := lv[:0]
		di := 0
		for _, x := range lv {
			for di < len(evict) && evict[di] < x {
				di++
			}
			if di < len(evict) && evict[di] == x {
				di++
				out.n--
				continue
			}
			kept = append(kept, x)
		}
		out.levels[0] = kept
	}
	if len(add) > 0 {
		out.levels[0] = mergeAscending(out.levels[0], add)
		out.n += int64(len(add))
		for len(out.levels[0]) > out.k {
			out.compact()
		}
	}
	if out.n <= 0 {
		return nil, ErrEmpty
	}
	return out, nil
}

// Levels returns the number of compactor levels.
func (s *Sketch) Levels() int { return len(s.levels) }

// Compactions returns the total number of level compactions performed
// over the sketch's history (including epochs it was cloned from).
func (s *Sketch) Compactions() int64 {
	var t int64
	for _, c := range s.comps {
		t += c
	}
	return t
}

// ErrorBound returns the worst-case rank error of any CDF/quantile
// query as a fraction of n. Each compaction at level i perturbs a
// fixed rank by at most 2^i (a query point straddles at most one
// adjacent pair), so the bound is Σ comps[i]·2^i / n, capped at 1.
// Zero means the sketch is still exact (no compaction has occurred).
func (s *Sketch) ErrorBound() float64 {
	var b float64
	for i, c := range s.comps {
		b += float64(c) * float64(int64(1)<<uint(i))
	}
	eps := b / float64(s.n)
	if eps > 1 {
		eps = 1
	}
	return eps
}

// View returns the sketch compiled into a counted ECDF of the
// (value, weight) multiset — built once, lazily, then shared. Every
// query method of the EmpiricalDistribution surface delegates to it,
// so the exact prefix-sum kernels, batch sweeps and O(1) sampler of
// the ECDF serve sketch-backed models unchanged. While the sketch has
// never compacted, the view is bit-identical to the exact ECDF of the
// same sample (same construction arithmetic over the same multiset).
func (s *Sketch) View() *ECDF {
	s.viewOnce.Do(func() {
		s.view = s.compile()
		s.viewBuilt.Store(true)
	})
	return s.view
}

// compile flattens the level stack into a counted ECDF: an ascending
// multi-way merge of the levels with per-value integer weights, and
// cumulative probabilities computed with the same
// float64(running)/float64(n) arithmetic as fromSortedTrusted.
func (s *Sketch) compile() *ECDF {
	idx := make([]int, len(s.levels))
	support := 0
	for _, lv := range s.levels {
		support += len(lv)
	}
	e := &ECDF{
		n:   int(s.n),
		xs:  make([]float64, 0, support),
		cum: make([]float64, 0, support),
		cnt: make([]int, 0, support),
	}
	nf := float64(s.n)
	running := 0
	for {
		best := math.Inf(1)
		found := false
		for i, lv := range s.levels {
			if idx[i] < len(lv) && lv[idx[i]] < best {
				best = lv[idx[i]]
				found = true
			}
		}
		if !found {
			break
		}
		c := 0
		for i, lv := range s.levels {
			for idx[i] < len(lv) && lv[idx[i]] == best {
				c += 1 << uint(i)
				idx[i]++
			}
		}
		running += c
		e.xs = append(e.xs, best)
		e.cum = append(e.cum, float64(running)/nf)
		e.cnt = append(e.cnt, c)
	}
	e.cum[len(e.cum)-1] = 1
	return e
}

// --- EmpiricalDistribution surface: delegate to the compiled view ---

// N returns the number of values the sketch has absorbed (total
// weight; exact, since compaction conserves weight).
func (s *Sketch) N() int { return int(s.n) }

// Min returns the smallest retained value. The true sample minimum may
// have been compacted away; the bound is within ErrorBound in rank.
func (s *Sketch) Min() float64 { return s.View().Min() }

// Max returns the largest retained value (same caveat as Min).
func (s *Sketch) Max() float64 { return s.View().Max() }

// Eval returns the sketched F(x) = P(X <= x), within ErrorBound of the
// exact empirical CDF in rank.
func (s *Sketch) Eval(x float64) float64 { return s.View().Eval(x) }

// Quantile returns the generalized inverse of the sketched CDF.
func (s *Sketch) Quantile(p float64) float64 { return s.View().Quantile(p) }

// SampleQuantile returns the type-7 interpolated quantile of the
// sketched multiset.
func (s *Sketch) SampleQuantile(p float64) float64 { return s.View().SampleQuantile(p) }

// Mean returns the mean of the sketched multiset.
func (s *Sketch) Mean() float64 { return s.View().Mean() }

// Std returns the standard deviation of the sketched multiset.
func (s *Sketch) Std() float64 { return s.View().Std() }

// Rand draws one bootstrap sample from the sketched multiset,
// consuming exactly one uniform from rng like ECDF.Rand.
func (s *Sketch) Rand(rng *rand.Rand) float64 { return s.View().Rand(rng) }

// IntegralOneMinusFPow computes ∫₀ᵀ (1-s·F)^b du over the sketched
// step CDF — the exact kernel machinery applied to the approximate
// representation, so the result is within b·s·ErrorBound·T of the
// exact model's answer (the integrand is Lipschitz in F).
func (s *Sketch) IntegralOneMinusFPow(T, sc float64, b int) float64 {
	return s.View().IntegralOneMinusFPow(T, sc, b)
}

// IntegralUOneMinusFPow is the u-weighted companion.
func (s *Sketch) IntegralUOneMinusFPow(T, sc float64, b int) float64 {
	return s.View().IntegralUOneMinusFPow(T, sc, b)
}

// IntegralOneMinusFPowBatch answers the pow-integral over a grid.
func (s *Sketch) IntegralOneMinusFPowBatch(Ts []float64, sc float64, b int) []float64 {
	return s.View().IntegralOneMinusFPowBatch(Ts, sc, b)
}

// IntegralUOneMinusFPowBatch is the u-weighted batch companion.
func (s *Sketch) IntegralUOneMinusFPowBatch(Ts []float64, sc float64, b int) []float64 {
	return s.View().IntegralUOneMinusFPowBatch(Ts, sc, b)
}

// IntegralProdOneMinusF computes the delayed cross-term integral.
func (s *Sketch) IntegralProdOneMinusF(T, shift, sc float64) float64 {
	return s.View().IntegralProdOneMinusF(T, shift, sc)
}

// IntegralUProdOneMinusF is the u-weighted cross-term companion.
func (s *Sketch) IntegralUProdOneMinusF(T, shift, sc float64) float64 {
	return s.View().IntegralUProdOneMinusF(T, shift, sc)
}

// IntegralProdBoth computes both cross-term moments in one walk.
func (s *Sketch) IntegralProdBoth(T, shift, sc float64) (plain, uweighted float64) {
	return s.View().IntegralProdBoth(T, shift, sc)
}

// IntegralProdBothBatch answers both cross-term moments over a grid.
func (s *Sketch) IntegralProdBothBatch(Ts []float64, shift, sc float64) (plain, uweighted []float64) {
	return s.View().IntegralProdBothBatch(Ts, shift, sc)
}

// IntegralProdRatioGrid answers the plain cross term along a ratio's
// t grid in one pass.
func (s *Sketch) IntegralProdRatioGrid(ratio, lo, h, sc float64, out []float64) {
	s.View().IntegralProdRatioGrid(ratio, lo, h, sc, out)
}

// MemBytes estimates the resident heap footprint: the compactor stack
// plus the compiled view (with whatever tables it has built) once one
// exists.
func (s *Sketch) MemBytes() int64 {
	var b int64
	for _, lv := range s.levels {
		b += int64(cap(lv)) * 8
	}
	b += int64(len(s.flip)) + int64(len(s.comps))*8
	if s.viewBuilt.Load() {
		b += s.view.MemBytes()
	}
	return b
}

// TableKeys returns the compiled view's kernel manifest (empty when no
// query has compiled a view yet).
func (s *Sketch) TableKeys() []TableKey {
	if !s.viewBuilt.Load() {
		return nil
	}
	return s.view.TableKeys()
}

// Prewarm eagerly builds the view's kernels for the given keys.
func (s *Sketch) Prewarm(keys []TableKey) { s.View().Prewarm(keys) }

// PrewarmSampler eagerly builds the view's sampler bucket table.
func (s *Sketch) PrewarmSampler() { s.View().PrewarmSampler() }

// SamplerWarm reports whether the view's sampler table has been built.
func (s *Sketch) SamplerWarm() bool { return s.viewBuilt.Load() && s.view.SamplerWarm() }
