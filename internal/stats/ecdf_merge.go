package stats

import (
	"fmt"
	"math"
	"sort"
)

// This file is the incremental-ingestion surface of the ECDF: merge-
// based construction of the next rolling-window epoch
// (MergeSortedEvict) and the kernel warm-up pair (TableKeys / Prewarm)
// that lets a model swap go live with hot prefix-sum tables instead of
// repaying their O(n) builds on the first post-swap query.

// MergeSortedEvict returns the ECDF of this sample plus the ascending
// slice add and minus the ascending slice evict — one rolling-window
// step, in O(m + len(add) + len(evict)) with no re-sort. Every evicted
// value must be present in the current sample (with multiplicity); the
// receiver is not modified.
//
// The result is bit-identical to NewECDF on the equivalent flat
// sample: counts are merged exactly and the cumulative probabilities
// are recomputed as float64(runningCount)/float64(n), the same
// expression NewECDF evaluates. Kernel tables and the sampler table do
// not carry over — warm the new epoch with Prewarm(old.TableKeys())
// before swapping it in.
//
// It returns an error for non-ascending, NaN or negative inputs,
// evictions that are not in the sample, and ErrEmpty when every value
// is evicted.
func (e *ECDF) MergeSortedEvict(add, evict []float64) (*ECDF, error) {
	if err := checkAscending("add", add); err != nil {
		return nil, err
	}
	if err := checkAscending("evict", evict); err != nil {
		return nil, err
	}
	n := e.n + len(add) - len(evict)
	if n <= 0 {
		if n < 0 {
			return nil, fmt.Errorf("stats: evicting %d values from a sample of %d", len(evict), e.n)
		}
		return nil, ErrEmpty
	}
	out := &ECDF{
		n:   n,
		xs:  make([]float64, 0, len(e.xs)+len(add)),
		cum: make([]float64, 0, len(e.xs)+len(add)),
		cnt: make([]int, 0, len(e.xs)+len(add)),
	}
	nf := float64(n)
	running := 0
	ai, di := 0, 0
	emit := func(x float64, c int) error {
		if c < 0 {
			return fmt.Errorf("stats: evicting value %v more often than it occurs", x)
		}
		if c == 0 {
			return nil
		}
		running += c
		out.xs = append(out.xs, x)
		out.cum = append(out.cum, float64(running)/nf)
		out.cnt = append(out.cnt, c)
		return nil
	}
	for i := 0; i < len(e.xs); i++ {
		// Added values strictly below the next existing support point
		// become new support. Evictions may match them too: a record
		// added and evicted within one window step (a batch wider than
		// the window) cancels here.
		for ai < len(add) && add[ai] < e.xs[i] {
			x := add[ai]
			c := 0
			for ai < len(add) && add[ai] == x {
				c++
				ai++
			}
			for di < len(evict) && evict[di] == x {
				c--
				di++
			}
			if di < len(evict) && evict[di] < x {
				return nil, fmt.Errorf("stats: evicted value %v not in the sample", evict[di])
			}
			if err := emit(x, c); err != nil {
				return nil, err
			}
		}
		c := e.cnt[i]
		for ai < len(add) && add[ai] == e.xs[i] {
			c++
			ai++
		}
		for di < len(evict) && evict[di] == e.xs[i] {
			c--
			di++
		}
		if di < len(evict) && evict[di] < e.xs[i] {
			return nil, fmt.Errorf("stats: evicted value %v not in the sample", evict[di])
		}
		if err := emit(e.xs[i], c); err != nil {
			return nil, err
		}
	}
	for ai < len(add) {
		x := add[ai]
		c := 0
		for ai < len(add) && add[ai] == x {
			c++
			ai++
		}
		for di < len(evict) && evict[di] == x {
			c--
			di++
		}
		if di < len(evict) && evict[di] < x {
			return nil, fmt.Errorf("stats: evicted value %v not in the sample", evict[di])
		}
		if err := emit(x, c); err != nil {
			return nil, err
		}
	}
	if di < len(evict) {
		return nil, fmt.Errorf("stats: evicted value %v not in the sample", evict[di])
	}
	out.cum[len(out.cum)-1] = 1
	return out, nil
}

func checkAscending(name string, xs []float64) error {
	for i, v := range xs {
		if math.IsNaN(v) || v < 0 {
			return badValue(name+" batch", v)
		}
		if i > 0 && v < xs[i-1] {
			return fmt.Errorf("stats: %s batch not sorted at index %d", name, i)
		}
	}
	return nil
}

// TableKey identifies one lazily built (scale, power) prefix-sum
// kernel: the integrand (1 - S·F)^B. The set of keys an ECDF has
// built is exactly the set of integrands its queries have touched, so
// carrying TableKeys() from the outgoing epoch to Prewarm() on the
// incoming one reproduces the old epoch's warm cache ahead of the
// swap.
type TableKey struct {
	S float64
	B int
}

// TableKeys returns the (s, b) kernel keys this ECDF has built,
// sorted, plus nothing else — the warm-cache manifest handed to the
// next epoch's Prewarm. Safe for concurrent use.
func (e *ECDF) TableKeys() []TableKey {
	e.kmu.RLock()
	keys := make([]TableKey, 0, len(e.kernels))
	for k := range e.kernels {
		keys = append(keys, TableKey{S: k.s, B: k.b})
	}
	e.kmu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].S != keys[j].S {
			return keys[i].S < keys[j].S
		}
		return keys[i].B < keys[j].B
	})
	return keys
}

// Prewarm eagerly builds the prefix-sum kernels for the given keys, so
// the first queries after this ECDF is swapped in cost a binary search
// instead of an O(n) table build. Safe for concurrent use
// (idempotent). Companion: PrewarmSampler for the bootstrap-sampling
// table — kept separate so a model that never simulates does not pay
// an O(n) sampler build per rebuild.
func (e *ECDF) Prewarm(keys []TableKey) {
	for _, k := range keys {
		if k.S < 0 || k.B < 1 {
			continue // a lazy query would never have built this key
		}
		e.powKernelFor(k.S, k.B)
	}
}

// PrewarmSampler eagerly builds the O(1) inverse-CDF bucket table the
// bootstrap sampler (Rand) uses, so the first post-swap Monte Carlo
// draw skips the O(n) build. Safe for concurrent use (idempotent).
func (e *ECDF) PrewarmSampler() {
	e.randOnce.Do(e.buildRandTable)
}

// SamplerWarm reports whether the sampler bucket table has been built
// (by a draw or by PrewarmSampler) — the sampler half of the
// TableKeys warm-cache manifest.
func (e *ECDF) SamplerWarm() bool { return e.randBuilt.Load() }

// SampleQuantile returns the p-quantile of the underlying flat sample
// under the same type-7 linear-interpolation convention as
// stats.Percentile on the sorted sample — exact order statistics
// resolved from the support counts in O(m), without materializing the
// sample.
func (e *ECDF) SampleQuantile(p float64) float64 {
	if p <= 0 {
		return e.xs[0]
	}
	if p >= 1 {
		return e.xs[len(e.xs)-1]
	}
	h := p * float64(e.n-1)
	lo := int(math.Floor(h))
	if lo+1 >= e.n {
		return e.xs[len(e.xs)-1]
	}
	x0 := e.orderStat(lo)
	x1 := e.orderStat(lo + 1)
	return x0 + (h-float64(lo))*(x1-x0)
}

// orderStat returns the r-th (0-based) smallest sample value from the
// support counts.
func (e *ECDF) orderStat(r int) float64 {
	c := 0
	for i, x := range e.xs {
		c += e.cnt[i]
		if c > r {
			return x
		}
	}
	return e.xs[len(e.xs)-1]
}
