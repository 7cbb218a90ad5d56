package stats

import (
	"math"
	"sync"
	"sync/atomic"
)

// DefaultSketchK is the per-level compactor capacity used when callers
// pass k <= 0. At k = 1024 a window of 10^5 latencies compacts into
// roughly log2(n/k) ≈ 7 levels — some 60 KB of resident state against
// the megabytes an exact ECDF (support, kernels, sampler)
// holds — with a worst-case rank error well under 1%.
const DefaultSketchK = 1024

// Sketch is a KLL-style quantile sketch of a latency sample: a stack
// of sorted compactor levels where every item at level i carries
// weight 2^i. It is the approximate, bounded-error representation the
// gridstratd registry demotes cold models to when byte pressure makes
// the exact ECDF too expensive to keep resident.
//
// Compaction is deterministic: when a level overflows its capacity k,
// adjacent pairs are halved by keeping one survivor per pair at twice
// the weight, with the surviving parity alternating per level between
// compactions so the rank errors of successive compactions cancel in
// expectation. An odd leftover stays at its level, so total weight is
// conserved exactly: N() is always the true number of observed values.
//
// A sketch-tier model queries the sketch's View: the (value, weight)
// multiset compiled once into an ECDF, so every exact-integral kernel,
// batch sweep, sampler table and warm-swap hook of the ECDF serves it
// unchanged. While no compaction has occurred (n <= k) the view is
// bit-identical to the exact ECDF of the same sample — the property
// the force-demote CI toggle leans on. A Sketch is immutable after
// construction and safe for concurrent use.
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

// SketchFromECDF builds a Sketch, with per-level capacity k
// (DefaultSketchK when k <= 0), of the flat sample behind an ECDF —
// the demotion constructor, which never rematerializes the sample:
// values are streamed from the support counts in ascending order.
func SketchFromECDF(e *ECDF, k int) *Sketch {
	if k <= 0 {
		k = DefaultSketchK
	}
	s := &Sketch{k: k, levels: [][]float64{nil}, flip: []bool{false}, comps: []int64{0}}
	for i, x := range e.xs {
		for c := 0; c < e.cnt[i]; c++ {
			s.levels[0] = append(s.levels[0], x)
			s.n++
			if len(s.levels[0]) > s.k {
				s.compact()
			}
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

// View returns the sketch compiled into an ECDF of the (value, weight)
// multiset — built once, lazily, then shared. A sketch-tier model
// queries it, so the exact prefix-sum kernels, batch sweeps and O(1)
// sampler of the ECDF serve sketch-backed models unchanged. While the sketch has
// never compacted, the view is bit-identical to the exact ECDF of the
// same sample (same construction arithmetic over the same multiset).
func (s *Sketch) View() *ECDF {
	s.viewOnce.Do(func() {
		s.view = s.compile()
		s.viewBuilt.Store(true)
	})
	return s.view
}

// compile flattens the level stack into an ECDF: an ascending
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

// N returns the number of values the sketch has absorbed (total
// weight; exact, since compaction conserves weight).
func (s *Sketch) N() int { return int(s.n) }

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
