package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrEmpty is returned when a sample-based constructor receives no
// data.
var ErrEmpty = errors.New("stats: empty sample")

// ECDF is the empirical cumulative distribution function of a sample,
// stored as sorted unique support points with cumulative probabilities.
// It supports exact integrals of functionals of the step function,
// which the submission-strategy models are built on.
//
// The integral primitives are answered by lazily built prefix-sum
// kernels (one table per (s, b) integrand) so a query costs a binary
// search plus an O(1) segment combine instead of an O(n) walk; the
// `…Batch` variants answer a whole ascending grid in one O(n+G) sweep.
// Table construction is guarded by an RWMutex and the sampler table by
// a sync.Once, so a single ECDF is safe for concurrent use — the Model
// contract the parallel optimizers and sharded simulators rely on.
type ECDF struct {
	xs  []float64 // sorted unique support
	cum []float64 // cum[i] = P(X <= xs[i]), cum[last] == 1
	n   int       // original sample size

	// cnt[i] is the number of sample values at xs[i]. It is what makes
	// an ECDF mergeable: MergeSortedEvict rebuilds the next window's
	// cum exactly (float64(runningCount)/float64(n), the same
	// arithmetic as NewECDF) instead of re-sorting the flat sample.
	// nil for weighted ECDFs (the output of Restrict), which cannot be
	// merged.
	cnt []int

	// Lazily built per-(s, b) prefix-sum kernels for the pow-integrals.
	kmu     sync.RWMutex
	kernels map[powKernelKey]*powKernel

	// Lazily built O(1) inverse-CDF bucket table for Rand. randBuilt
	// mirrors the Once so the warm-swap handoff can ask whether the
	// outgoing epoch ever sampled without racing the builder.
	randOnce  sync.Once
	randBuilt atomic.Bool
	randIdx   []int32
}

// NewECDF builds the ECDF of sample (unweighted). The input slice is
// not modified. It returns ErrEmpty for an empty sample and an error if
// any value is NaN.
func NewECDF(sample []float64) (*ECDF, error) {
	if len(sample) == 0 {
		return nil, ErrEmpty
	}
	xs := append([]float64(nil), sample...)
	for _, v := range xs {
		if math.IsNaN(v) {
			return nil, errors.New("stats: NaN in sample")
		}
	}
	sort.Float64s(xs)
	return fromSortedTrusted(xs), nil
}

// fromSortedTrusted builds the counted ECDF of an ascending, NaN-free
// sample. It is the single construction loop shared by NewECDF,
// NewECDFFromSorted and the merge path's full-rebuild fallback, so
// every counted ECDF of one sample multiset is bit-identical no matter
// which constructor produced it.
func fromSortedTrusted(xs []float64) *ECDF {
	e := &ECDF{n: len(xs)}
	n := float64(len(xs))
	for i := 0; i < len(xs); {
		j := i
		for j < len(xs) && xs[j] == xs[i] {
			j++
		}
		e.xs = append(e.xs, xs[i])
		e.cum = append(e.cum, float64(j)/n)
		e.cnt = append(e.cnt, j-i)
		i = j
	}
	e.cum[len(e.cum)-1] = 1
	return e
}

// NewECDFFromSorted builds the ECDF of an already ascending sample,
// skipping NewECDF's O(n log n) sort — the constructor of the
// incremental ingestion path, whose samples arrive pre-sorted from a
// merge. The input slice is not modified. It returns ErrEmpty for an
// empty sample and an error if the sample contains NaN or is not
// ascending. The result is bit-identical to NewECDF on the same
// multiset.
func NewECDFFromSorted(sorted []float64) (*ECDF, error) {
	if len(sorted) == 0 {
		return nil, ErrEmpty
	}
	if err := checkAscending("sample", sorted); err != nil {
		return nil, err
	}
	return fromSortedTrusted(append([]float64(nil), sorted...)), nil
}

// MustECDF is NewECDF that panics on error; for tests and literals.
func MustECDF(sample []float64) *ECDF {
	e, err := NewECDF(sample)
	if err != nil {
		panic(err)
	}
	return e
}

// N returns the size of the underlying sample.
func (e *ECDF) N() int { return e.n }

// Support returns the sorted unique support points (do not modify).
func (e *ECDF) Support() []float64 { return e.xs }

// Min returns the smallest sample value.
func (e *ECDF) Min() float64 { return e.xs[0] }

// Max returns the largest sample value.
func (e *ECDF) Max() float64 { return e.xs[len(e.xs)-1] }

// Eval returns F(x) = P(X <= x), a right-continuous step function.
func (e *ECDF) Eval(x float64) float64 {
	// Index of first support point > x.
	i := sort.SearchFloat64s(e.xs, x)
	if i < len(e.xs) && e.xs[i] == x {
		return e.cum[i]
	}
	if i == 0 {
		return 0
	}
	return e.cum[i-1]
}

// Quantile returns the generalized inverse: the smallest support point
// x with F(x) >= p. For p <= 0 it returns Min; for p >= 1, Max.
//
// Invariant: cum[last] is pinned to exactly 1 at construction (and by
// Restrict), so for p in (0, 1) the search below always finds an index
// — the last entry satisfies the predicate even when accumulated
// rounding would leave float64(n)/n slightly under 1.
func (e *ECDF) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return e.xs[0]
	case p >= 1:
		return e.xs[len(e.xs)-1]
	}
	return e.xs[sort.Search(len(e.cum), func(i int) bool { return e.cum[i] >= p })]
}

// buildRandTable precomputes the inverse-CDF bucket table: for each of
// the nb uniform buckets [k/nb, (k+1)/nb), randIdx[k] is a support
// index at (or within a step or two of) the generalized inverse for
// any u in the bucket. Because every support point carries mass at
// least 1/n and nb >= n, each bucket overlaps at most a couple of cum
// entries, so a table-guided draw finishes in O(1).
func (e *ECDF) buildRandTable() {
	nb := e.n
	if nb < len(e.xs) {
		nb = len(e.xs)
	}
	idx := make([]int32, nb+1)
	j := 0
	for k := 0; k <= nb; k++ {
		p := float64(k) / float64(nb)
		for j < len(e.cum)-1 && e.cum[j] < p {
			j++
		}
		idx[k] = int32(j)
	}
	e.randIdx = idx
	e.randBuilt.Store(true)
}

// Rand draws one bootstrap sample (a support point with its empirical
// probability). It consumes exactly one uniform from rng and returns
// Quantile(u) computed through the precomputed bucket table, so a
// seeded stream of draws is bit-identical to the historical
// Quantile(rng.Float64()) implementation while each draw costs O(1)
// instead of a binary search.
func (e *ECDF) Rand(rng *rand.Rand) float64 {
	e.randOnce.Do(e.buildRandTable)
	u := rng.Float64()
	nb := len(e.randIdx) - 1
	k := int(u * float64(nb))
	if k >= nb {
		k = nb - 1
	}
	// Resolve the exact generalized inverse from the bucket hint: the
	// predicate cum[i] >= u is monotone, so walking from any start
	// reaches the smallest satisfying index; the table keeps both walks
	// O(1).
	i := int(e.randIdx[k])
	for i > 0 && e.cum[i-1] >= u {
		i--
	}
	for e.cum[i] < u {
		i++
	}
	return e.xs[i]
}

// Mean returns the sample mean.
func (e *ECDF) Mean() float64 {
	sum := 0.0
	prev := 0.0
	for i, x := range e.xs {
		sum += x * (e.cum[i] - prev)
		prev = e.cum[i]
	}
	return sum
}

// Var returns the (population) sample variance.
func (e *ECDF) Var() float64 {
	mean := e.Mean()
	sum := 0.0
	prev := 0.0
	for i, x := range e.xs {
		d := x - mean
		sum += d * d * (e.cum[i] - prev)
		prev = e.cum[i]
	}
	return sum
}

// Std returns the sample standard deviation.
func (e *ECDF) Std() float64 { return math.Sqrt(e.Var()) }

// --- Prefix-sum kernels for the pow-integrals ---

// powKernelKey identifies one (scale, power) integrand (1 - s·F)^b.
type powKernelKey struct {
	s float64
	b int
}

// powKernel is the prefix-sum table of one integrand: seg[i] is the
// constant integrand value on [xs[i], xs[i+1]) and pre/preU accumulate
// the plain and u-weighted integrals up to each support point with the
// same left-to-right addition order as the reference walkers, so a
// table-backed query reproduces the walker's floating-point result for
// b = 1 exactly and within a few ulps otherwise.
type powKernel struct {
	seg  []float64 // (1 - s·cum[i])^b on [xs[i], xs[i+1])
	pre  []float64 // ∫₀^{xs[i]} (1 - s·F(u))^b du
	preU []float64 // ∫₀^{xs[i]} u·(1 - s·F(u))^b du
}

// maxPowKernels bounds the per-ECDF kernel cache. Each table costs
// three float64 slices over the support (24·|support| bytes); a model
// only ever queries one s (its 1-ρ) and a handful of b values, so the
// cap exists purely to bound memory against adversarial query
// patterns — queries past the cap fall back to the uncached O(n)
// walkers.
const maxPowKernels = 64

// powKernelFor returns the lazily built kernel for (s, b), or nil when
// the fast path does not apply (negative support, or cache full for a
// previously unseen key) and the caller must use the walker.
func (e *ECDF) powKernelFor(s float64, b int) *powKernel {
	if e.xs[0] < 0 {
		// The reference walkers have bespoke behaviour for negative
		// support (latencies are non-negative, so this never triggers
		// in practice); keep exact parity by walking.
		return nil
	}
	key := powKernelKey{s: s, b: b}
	e.kmu.RLock()
	k := e.kernels[key]
	e.kmu.RUnlock()
	if k != nil {
		return k
	}
	e.kmu.Lock()
	defer e.kmu.Unlock()
	if k = e.kernels[key]; k != nil {
		return k
	}
	if len(e.kernels) >= maxPowKernels {
		return nil
	}
	m := len(e.xs)
	k = &powKernel{
		seg:  make([]float64, m),
		pre:  make([]float64, m),
		preU: make([]float64, m),
	}
	for i := 0; i < m; i++ {
		k.seg[i] = PowInt(1-s*e.cum[i], b)
	}
	// Integrand is 1 before the first jump ((1 - s·0)^b).
	k.pre[0] = e.xs[0]
	k.preU[0] = 0.5 * e.xs[0] * e.xs[0]
	for i := 1; i < m; i++ {
		k.pre[i] = k.pre[i-1] + (e.xs[i]-e.xs[i-1])*k.seg[i-1]
		k.preU[i] = k.preU[i-1] + 0.5*(e.xs[i]*e.xs[i]-e.xs[i-1]*e.xs[i-1])*k.seg[i-1]
	}
	if e.kernels == nil {
		e.kernels = make(map[powKernelKey]*powKernel)
	}
	e.kernels[key] = k
	return k
}

// integral answers ∫₀ᵀ (1-s·F)^b given the table: the prefix through
// the last support point below T plus the partial final segment.
func (k *powKernel) integral(xs []float64, T float64) float64 {
	return k.integralAt(xs, sort.SearchFloat64s(xs, T), T)
}

// integralU answers ∫₀ᵀ u·(1-s·F)^b from the table.
func (k *powKernel) integralU(xs []float64, T float64) float64 {
	return k.integralUAt(xs, sort.SearchFloat64s(xs, T), T)
}

// integralAt is integral with the segment index j (first support point
// >= T) already located — the batch sweeps carry it as a cursor.
func (k *powKernel) integralAt(xs []float64, j int, T float64) float64 {
	if j == 0 {
		return T
	}
	return k.pre[j-1] + (T-xs[j-1])*k.seg[j-1]
}

// integralUAt is integralU with the segment index already located.
func (k *powKernel) integralUAt(xs []float64, j int, T float64) float64 {
	if j == 0 {
		return 0.5 * T * T
	}
	return k.preU[j-1] + 0.5*(T*T-xs[j-1]*xs[j-1])*k.seg[j-1]
}

// checkPow validates the integer power shared by the pow-integrals.
func checkPow(b int) {
	if b < 1 {
		panic(fmt.Sprintf("stats: power b must be >= 1, got %d", b))
	}
}

// IntegralOneMinusFPow computes  ∫₀ᵀ (1 - s·F(u))^b du  exactly, where
// F is this step ECDF, s in [0, 1] is a scale factor (the paper's 1-ρ
// making F̃ = s·F), and b >= 1 an integer power. T must be >= 0.
//
// This single primitive covers the single-resubmission integral (b=1)
// and the multiple-submission integral (general b) of the paper with no
// discretization error. The first query for a given (s, b) builds an
// O(n) prefix-sum kernel; every later query is a binary search plus an
// O(1) segment combine.
func (e *ECDF) IntegralOneMinusFPow(T, s float64, b int) float64 {
	if T <= 0 || s < 0 {
		return 0
	}
	checkPow(b)
	if k := e.powKernelFor(s, b); k != nil {
		return k.integral(e.xs, T)
	}
	return e.IntegralOneMinusFPowWalk(T, s, b)
}

// IntegralUOneMinusFPow computes ∫₀ᵀ u·(1 - s·F(u))^b du exactly; this
// is the second-moment integrand of Eq. 2 and Eq. 4 of the paper. Like
// IntegralOneMinusFPow it is answered from the lazily built (s, b)
// prefix-sum kernel.
func (e *ECDF) IntegralUOneMinusFPow(T, s float64, b int) float64 {
	if T <= 0 || s < 0 {
		return 0
	}
	checkPow(b)
	if k := e.powKernelFor(s, b); k != nil {
		return k.integralU(e.xs, T)
	}
	return e.IntegralUOneMinusFPowWalk(T, s, b)
}

// IntegralOneMinusFPowBatch answers ∫₀ᵀ (1-s·F)^b for every T in Ts.
// An ascending Ts (the optimizer grids) is answered with one monotone
// cursor sweep — O(n + G) total; out-of-order entries fall back to a
// fresh binary search per entry. Results are bit-identical to the
// scalar method at every entry.
func (e *ECDF) IntegralOneMinusFPowBatch(Ts []float64, s float64, b int) []float64 {
	return e.powBatch(Ts, s, b, false)
}

// IntegralUOneMinusFPowBatch is the u-weighted companion of
// IntegralOneMinusFPowBatch.
func (e *ECDF) IntegralUOneMinusFPowBatch(Ts []float64, s float64, b int) []float64 {
	return e.powBatch(Ts, s, b, true)
}

// powBatch is the shared cursor sweep of the two pow-integral batch
// variants; uweighted selects the emitted moment.
func (e *ECDF) powBatch(Ts []float64, s float64, b int, uweighted bool) []float64 {
	checkPow(b)
	out := make([]float64, len(Ts))
	if s < 0 {
		return out
	}
	k := e.powKernelFor(s, b)
	j := 0
	cursorT := math.Inf(-1) // largest T the cursor was positioned for
	for i, T := range Ts {
		if T <= 0 {
			continue
		}
		if k == nil {
			if uweighted {
				out[i] = e.IntegralUOneMinusFPowWalk(T, s, b)
			} else {
				out[i] = e.IntegralOneMinusFPowWalk(T, s, b)
			}
			continue
		}
		if T < cursorT {
			j = sort.SearchFloat64s(e.xs, T) // out-of-order entry
		} else {
			for j < len(e.xs) && e.xs[j] < T {
				j++
			}
			cursorT = T
		}
		if uweighted {
			out[i] = k.integralUAt(e.xs, j, T)
		} else {
			out[i] = k.integralAt(e.xs, j, T)
		}
	}
	return out
}

// --- Reference walkers ---
//
// The original O(n) implementations are retained under the …Walk names
// as the ground truth the kernels are property-tested against, and as
// the "PR 2 path" the perf-trajectory snapshot (BENCH_PR3.json) times
// the kernels against.

// IntegralOneMinusFPowWalk is the O(n) reference walker for
// IntegralOneMinusFPow.
func (e *ECDF) IntegralOneMinusFPowWalk(T, s float64, b int) float64 {
	if T <= 0 || s < 0 {
		return 0
	}
	checkPow(b)
	total := 0.0
	prevX := 0.0
	prevF := 0.0 // F value on [prevX, next support)
	for i := 0; i <= len(e.xs); i++ {
		var x, f float64
		if i < len(e.xs) {
			x = e.xs[i]
			f = e.cum[i]
		} else {
			x = math.Inf(1)
			f = 1
		}
		if x > T {
			x = T
		}
		if x > prevX {
			total += (x - prevX) * math.Pow(1-s*prevF, float64(b))
		}
		if x >= T {
			return total
		}
		prevX = x
		prevF = f
	}
	return total
}

// IntegralUOneMinusFPowWalk is the O(n) reference walker for
// IntegralUOneMinusFPow.
func (e *ECDF) IntegralUOneMinusFPowWalk(T, s float64, b int) float64 {
	if T <= 0 || s < 0 {
		return 0
	}
	checkPow(b)
	total := 0.0
	prevX := 0.0
	prevF := 0.0
	for i := 0; i <= len(e.xs); i++ {
		var x, f float64
		if i < len(e.xs) {
			x = e.xs[i]
			f = e.cum[i]
		} else {
			x = math.Inf(1)
			f = 1
		}
		if x > T {
			x = T
		}
		if x > prevX {
			total += 0.5 * (x*x - prevX*prevX) * math.Pow(1-s*prevF, float64(b))
		}
		if x >= T {
			return total
		}
		prevX = x
		prevF = f
	}
	return total
}

// --- Delayed cross-term integrals ---

// IntegralProdOneMinusF computes ∫₀ᵀ (1 - s·F(u+shift))·(1 - s·F(u)) du
// exactly over the step ECDF. This is the cross term of the
// delayed-resubmission survival function, where two job copies offset
// by the delay are racing. The walk is windowed: binary-searched cursor
// entry and early exit at T keep the cost proportional to the support
// points inside [0, T] ∪ [shift, shift+T], not the full support.
func (e *ECDF) IntegralProdOneMinusF(T, shift, s float64) float64 {
	return e.integralProd(T, shift, s, false)
}

// IntegralUProdOneMinusF computes ∫₀ᵀ u·(1-s·F(u+shift))·(1-s·F(u)) du
// exactly; the second-moment companion of IntegralProdOneMinusF.
func (e *ECDF) IntegralUProdOneMinusF(T, shift, s float64) float64 {
	return e.integralProd(T, shift, s, true)
}

// IntegralProdOneMinusFWalk is IntegralProdOneMinusF under the walker
// naming scheme (the cross terms are inherently merged walks; the name
// exists so the four integral primitives expose a uniform reference
// surface for property tests and the perf snapshot).
func (e *ECDF) IntegralProdOneMinusFWalk(T, shift, s float64) float64 {
	return e.integralProd(T, shift, s, false)
}

// IntegralUProdOneMinusFWalk is the reference walker name for
// IntegralUProdOneMinusF.
func (e *ECDF) IntegralUProdOneMinusFWalk(T, shift, s float64) float64 {
	return e.integralProd(T, shift, s, true)
}

// IntegralProdBoth computes both cross-term integrals (plain and
// u-weighted) in one merged walk — half the walk cost of calling the
// two scalar methods, with bit-identical results.
func (e *ECDF) IntegralProdBoth(T, shift, s float64) (plain, uweighted float64) {
	var p, u [1]float64
	e.prodBothSweep([]float64{T}, shift, s, p[:], u[:])
	return p[0], u[0]
}

// IntegralProdBothBatch answers both cross-term integrals for every T
// in the ascending slice Ts in one merged walk (O(n + G)); this is the
// sweep the 2D delayed-surface scans use, where one grid row shares a
// single shift = t0. A non-ascending Ts falls back to per-entry walks.
// Results are bit-identical to the scalar methods at every entry.
func (e *ECDF) IntegralProdBothBatch(Ts []float64, shift, s float64) (plain, uweighted []float64) {
	// One allocation for both results: a delayed ratio scan makes one
	// call per grid row.
	buf := make([]float64, 2*len(Ts))
	plain, uweighted = buf[:len(Ts):len(Ts)], buf[len(Ts):]
	if len(Ts) == 0 {
		return plain, uweighted
	}
	for i := 1; i < len(Ts); i++ {
		if Ts[i] < Ts[i-1] {
			for j, T := range Ts {
				plain[j], uweighted[j] = e.IntegralProdBoth(T, shift, s)
			}
			return plain, uweighted
		}
	}
	e.prodBothSweep(Ts, shift, s, plain, uweighted)
	return plain, uweighted
}

// prodBothSweep walks the merged jump points of F(u) and F(u+shift)
// once, accumulating both the plain and the u-weighted cross-term
// integrals, and emits the running value at every checkpoint in the
// ascending slice Ts. Checkpoint emission adds the partial final
// segment without mutating the running totals, so each emitted value
// reproduces exactly the floating-point sum a scalar walk stopping at
// that T would produce.
func (e *ECDF) prodBothSweep(Ts []float64, shift, s float64, out0, out1 []float64) {
	t := 0
	for t < len(Ts) && (Ts[t] <= 0 || s < 0) {
		out0[t], out1[t] = 0, 0
		t++
	}
	if t == len(Ts) {
		return
	}
	Tmax := Ts[len(Ts)-1]
	// Cursor i: next jump of F(u) at u = xs[i]; cursor j: next jump of
	// F(u+shift) at u = xs[j]-shift. F values carried are those on the
	// current segment [u, nextBreak).
	i := sort.SearchFloat64s(e.xs, 0)
	if i < len(e.xs) && e.xs[i] == 0 {
		i++ // jump at exactly 0 is already included in Eval(0)
	}
	j := sort.SearchFloat64s(e.xs, shift)
	if j < len(e.xs) && e.xs[j] == shift {
		j++
	}
	f2 := e.Eval(0)
	f1 := e.Eval(shift)
	u := 0.0
	tot0, tot1 := 0.0, 0.0
	for u < Tmax {
		next := Tmax
		if i < len(e.xs) && e.xs[i] < next {
			next = e.xs[i]
		}
		if j < len(e.xs) && e.xs[j]-shift < next {
			next = e.xs[j] - shift
		}
		c := (1 - s*f2) * (1 - s*f1)
		for t < len(Ts) && Ts[t] <= next {
			out0[t] = tot0 + c*(Ts[t]-u)
			out1[t] = tot1 + c*0.5*(Ts[t]*Ts[t]-u*u)
			t++
		}
		tot0 += c * (next - u)
		tot1 += c * 0.5 * (next*next - u*u)
		if next >= Tmax {
			break
		}
		for i < len(e.xs) && e.xs[i] <= next {
			f2 = e.cum[i]
			i++
		}
		for j < len(e.xs) && e.xs[j]-shift <= next {
			f1 = e.cum[j]
			j++
		}
		u = next
	}
	// Defensive: every checkpoint <= Tmax is emitted in-loop; fill any
	// float-edge stragglers with the final totals.
	for ; t < len(Ts); t++ {
		out0[t], out1[t] = tot0, tot1
	}
}

// integralProd walks the merged jump points of F(u) and F(u+shift)
// over [0, T) with two cursors — allocation-free and exact, since both
// factors are constant between consecutive jumps.
func (e *ECDF) integralProd(T, shift, s float64, withU bool) float64 {
	if T <= 0 || s < 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.xs, 0)
	if i < len(e.xs) && e.xs[i] == 0 {
		i++ // jump at exactly 0 is already included in Eval(0)
	}
	j := sort.SearchFloat64s(e.xs, shift)
	if j < len(e.xs) && e.xs[j] == shift {
		j++
	}
	f2 := e.Eval(0)
	f1 := e.Eval(shift)
	u := 0.0
	total := 0.0
	for u < T {
		next := T
		if i < len(e.xs) && e.xs[i] < next {
			next = e.xs[i]
		}
		if j < len(e.xs) && e.xs[j]-shift < next {
			next = e.xs[j] - shift
		}
		c := (1 - s*f2) * (1 - s*f1)
		if withU {
			total += c * 0.5 * (next*next - u*u)
		} else {
			total += c * (next - u)
		}
		if next >= T {
			break
		}
		for i < len(e.xs) && e.xs[i] <= next {
			f2 = e.cum[i]
			i++
		}
		for j < len(e.xs) && e.xs[j]-shift <= next {
			f1 = e.cum[j]
			j++
		}
		u = next
	}
	return total
}

// PartialExpectation computes ∫₀ᵀ u dF(u) = (1/n)·Σ_{x_i <= T} x_i,
// the contribution of samples below T to the mean (exact).
func (e *ECDF) PartialExpectation(T float64) float64 {
	sum := 0.0
	prev := 0.0
	for i, x := range e.xs {
		if x > T {
			break
		}
		sum += x * (e.cum[i] - prev)
		prev = e.cum[i]
	}
	return sum
}

// Restrict returns a new ECDF of only the sample values <= T (the
// conditional law given X <= T). It returns ErrEmpty if no values
// qualify.
//
// The restricted ECDF is built directly from the (xs, cum) weights in
// O(k) for k kept support points — no materialization of duplicate
// samples, no re-sort, and no rounding drift for weights that are not
// exact multiples of 1/n (e.g. the output of a previous Restrict).
func (e *ECDF) Restrict(T float64) (*ECDF, error) {
	// First support index beyond T: keep xs[:hi].
	hi := sort.SearchFloat64s(e.xs, T)
	if hi < len(e.xs) && e.xs[hi] == T {
		hi++
	}
	if hi == 0 {
		return nil, ErrEmpty
	}
	mass := e.cum[hi-1]
	xs := append([]float64(nil), e.xs[:hi]...)
	cum := make([]float64, hi)
	for i := 0; i < hi; i++ {
		cum[i] = e.cum[i] / mass
	}
	cum[hi-1] = 1 // pin the Quantile invariant exactly
	n := int(math.Round(mass * float64(e.n)))
	if n < hi {
		n = hi // at least one sample per retained support point
	}
	return &ECDF{xs: xs, cum: cum, n: n}, nil
}

// LinearInterpolated returns a continuous piecewise-linear CDF passing
// through the ECDF's step midpoints, suitable for density-based
// evaluations (the delayed-resubmission closed form needs a density).
// The returned function is non-decreasing, 0 before Min and 1 after
// Max.
func (e *ECDF) LinearInterpolated() func(float64) float64 {
	xs := e.xs
	cum := e.cum
	return func(x float64) float64 {
		if x <= xs[0] {
			if x == xs[0] {
				return cum[0]
			}
			return 0
		}
		if x >= xs[len(xs)-1] {
			return 1
		}
		i := sort.SearchFloat64s(xs, x)
		if i < len(xs) && xs[i] == x {
			return cum[i]
		}
		// Between xs[i-1] and xs[i].
		x0, x1 := xs[i-1], xs[i]
		y0, y1 := cum[i-1], cum[i]
		return y0 + (y1-y0)*(x-x0)/(x1-x0)
	}
}
