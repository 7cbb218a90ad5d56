package stats

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"
)

// The exact oracle. Every float64 is a dyadic rational, and so is every
// sum, difference and product of them: an integral over the ECDF's own
// support and cum values, evaluated in big.Float arithmetic that sizes
// each result's mantissa to hold it, involves no rounding at all (each
// operation checks that it was exact). The oracle's answers are the
// true integrals of the step law the kernels integrate, rounded once
// to float64. Each kernel is held to them within kernelTol, a bound
// derived from the support size n, the power b and the float64 unit
// roundoff ε.

// eps is the float64 unit roundoff, 2⁻⁵³.
const eps = 0x1p-53

// kernelTol bounds every pow and cross-term kernel on an ECDF with n
// support points at power b (b = 1 for the cross terms):
//
//	|kernel - exact| <= kernelTol(n, b) · T^(m+1)
//
// for the moment m (0 plain, 1 u-weighted); T^(m+1) bounds both the
// integral and every partial sum of it. To first order in ε a kernel
// adds at most 2n+1 non-negative segment terms (n support points, plus
// n shifted breaks in the merged cross-term walk), each a length or
// half a difference of squares times an integrand value in [0, 1]:
//
//   - an integrand value 1-s·c is off by <= ε; its b-th power by
//     <= b·ε from that plus (b-1)·ε from the product's own rounding;
//     a cross-term product of two b = 1 values by <= 3ε;
//   - a length rounds by ε of itself and its product by ε more; half a
//     difference of squares rounds by <= ε·T² (the rounded squares
//     cancel);
//   - a shifted break x - shift rounds by <= ε·T, moving the
//     integrand's jump (<= T^m) that far: n breaks give n·ε·T^(m+1);
//   - summing 2n+1 non-negative terms adds 2n·ε of their total.
//
// The pow kernels total <= (1.5n + b + 2)·ε·T^(m+1), the cross terms
// <= (3n + 5)·ε·T plain and (4n + 3)·ε·T² u-weighted. The bound covers
// all of them, with room for the second-order terms.
func kernelTol(n, b int) float64 {
	return float64(4*n+2*b+8) * eps
}

// num is an exact dyadic rational.
type num = *big.Float

func exact(x float64) num { return new(big.Float).SetFloat64(x) }

var (
	one  = exact(1)
	half = exact(0.5)
)

func toFloat(x num) float64 {
	f, _ := x.Float64()
	return f
}

// checked returns z, or panics if the operation that made it rounded.
func checked(z num) num {
	if z.Acc() != big.Exact {
		panic("oracle: inexact operation")
	}
	return z
}

func mul(a, b num) num {
	return checked(new(big.Float).SetPrec(a.MinPrec()+b.MinPrec()+1).Mul(a, b))
}

// add sizes the sum to span from the lowest set bit of either operand
// to one above the highest (the carry).
func add(a, b num) num {
	switch {
	case a.Sign() == 0:
		return new(big.Float).Copy(b)
	case b.Sign() == 0:
		return new(big.Float).Copy(a)
	}
	ea, eb := a.MantExp(nil), b.MantExp(nil)
	lo := min(ea-int(a.MinPrec()), eb-int(b.MinPrec()))
	return checked(new(big.Float).SetPrec(uint(max(ea, eb)+1-lo)).Add(a, b))
}

func sub(a, b num) num { return add(a, new(big.Float).Neg(b)) }

// segInt returns c·∫_a^b u^m du.
func segInt(a, b, c num, m int) num {
	if m == 0 {
		return mul(sub(b, a), c)
	}
	return mul(mul(sub(mul(b, b), mul(a, a)), half), c)
}

// powNum returns v^b.
func powNum(v num, b int) num {
	r := one
	for i := 0; i < b; i++ {
		r = mul(r, v)
	}
	return r
}

// exactLaw is an ECDF at one scale s in exact arithmetic: xs are its
// support points and sv[k] = 1 - s·cum[k-1] the survival S = 1 - s·F
// once k of them are passed (sv[0] = 1).
type exactLaw struct {
	e      *ECDF
	xs, sv []num
	pre    map[int]*[2][]num
}

func newExactLaw(e *ECDF, s float64) *exactLaw {
	l := &exactLaw{e: e, sv: []num{one}, pre: map[int]*[2][]num{}}
	for i, x := range e.xs {
		l.xs = append(l.xs, exact(x))
		l.sv = append(l.sv, sub(one, mul(exact(s), exact(e.cum[i]))))
	}
	return l
}

// prefix returns, for power b and moment m, P[k] = ∫₀^{xs[k-1]} u^m·S^b
// (P[0] = 0), built once per b.
func (l *exactLaw) prefix(b int) *[2][]num {
	if p := l.pre[b]; p != nil {
		return p
	}
	p := &[2][]num{}
	for m := range p {
		p[m] = []num{new(big.Float)}
	}
	a := new(big.Float)
	for k, x := range l.xs {
		v := powNum(l.sv[k], b)
		for m := range p {
			p[m] = append(p[m], add(p[m][k], segInt(a, x, v, m)))
		}
		a = x
	}
	l.pre[b] = p
	return p
}

// pow returns ∫₀ᵀ u^m·(1 - s·F(u))^b du.
func (l *exactLaw) pow(T float64, b, m int) float64 {
	if T <= 0 {
		return 0
	}
	p := l.prefix(b)[m]
	// The k support points below T are passed on [xs[k-1], T).
	k := sort.SearchFloat64s(l.e.xs, T)
	a := new(big.Float)
	if k > 0 {
		a = l.xs[k-1]
	}
	return toFloat(add(p[k], segInt(a, exact(T), powNum(l.sv[k], b), m)))
}

// prod returns ∫₀ᵀ u^m·(1 - s·F(u+shift))·(1 - s·F(u)) du for m = 0
// and 1 at every T of the ascending checkpoints Ts, from one exact walk
// over the merged jumps of F(u) and F(u+shift).
func (l *exactLaw) prod(Ts []num, shift num) (plain, uw []float64) {
	plain, uw = make([]float64, len(Ts)), make([]float64, len(Ts))
	n := len(l.xs)
	// i counts the support points <= u, j those <= u + shift.
	i, j := 0, 0
	for i < n && l.xs[i].Sign() <= 0 {
		i++
	}
	for j < n && l.xs[j].Cmp(shift) <= 0 {
		j++
	}
	brk := func(j int) num { return sub(l.xs[j], shift) }
	u := new(big.Float)
	tot := [2]num{new(big.Float), new(big.Float)}
	for t, T := range Ts {
		if T.Sign() <= 0 {
			continue
		}
		for u.Cmp(T) < 0 {
			next := T
			if i < n && l.xs[i].Cmp(next) < 0 {
				next = l.xs[i]
			}
			if j < n {
				if bj := brk(j); bj.Cmp(next) < 0 {
					next = bj
				}
			}
			c := mul(l.sv[i], l.sv[j])
			for m := range tot {
				tot[m] = add(tot[m], segInt(u, next, c, m))
			}
			for i < n && l.xs[i].Cmp(next) <= 0 {
				i++
			}
			for j < n && brk(j).Cmp(next) <= 0 {
				j++
			}
			u = next
		}
		plain[t], uw[t] = toFloat(tot[0]), toFloat(tot[1])
	}
	return plain, uw
}

// prodAt is prod at one float T.
func (l *exactLaw) prodAt(T, shift float64) (plain, uw float64) {
	p, u := l.prod([]num{exact(T)}, exact(shift))
	return p[0], u[0]
}

// within fails unless |got - want| <= tol·scale; format and args name
// the query.
func within(t testing.TB, got, want, tol, scale float64, format string, args ...any) {
	t.Helper()
	if !(math.Abs(got-want) <= tol*scale) {
		t.Fatalf("%s: kernel %v, exact %v (error %.3g, bound %.3g)",
			fmt.Sprintf(format, args...), got, want, math.Abs(got-want), tol*scale)
	}
}

// checkKernels holds every pow and cross-term kernel of e at scale s —
// scalar and batch, both moments — to the oracle within kernelTol, at
// the query points Ts (any order), the shifts, and the powers bs.
func checkKernels(t testing.TB, e *ECDF, s float64, Ts, shifts []float64, bs []int) {
	t.Helper()
	l := newExactLaw(e, s)
	n := len(e.xs)
	asc := append([]float64(nil), Ts...)
	sort.Float64s(asc)
	for _, b := range bs {
		tol := kernelTol(n, b)
		batch := e.IntegralOneMinusFPowBatch(asc, s, b)
		batchU := e.IntegralUOneMinusFPowBatch(asc, s, b)
		for i, T := range asc {
			sc := math.Max(T, 0)
			want, wantU := l.pow(T, b, 0), l.pow(T, b, 1)
			within(t, e.IntegralOneMinusFPow(T, s, b), want, tol, sc, "∫(1-sF)^b T=%v s=%v b=%d", T, s, b)
			within(t, e.IntegralUOneMinusFPow(T, s, b), wantU, tol, sc*sc, "∫u(1-sF)^b T=%v s=%v b=%d", T, s, b)
			within(t, batch[i], want, tol, sc, "batch ∫(1-sF)^b T=%v s=%v b=%d", T, s, b)
			within(t, batchU[i], wantU, tol, sc*sc, "batch ∫u(1-sF)^b T=%v s=%v b=%d", T, s, b)
		}
	}
	tol := kernelTol(n, 1)
	ascX := make([]num, len(asc))
	for i, T := range asc {
		ascX[i] = exact(T)
	}
	for _, shift := range shifts {
		want, wantU := l.prod(ascX, exact(shift))
		bp, bu := e.IntegralProdBothBatch(asc, shift, s)
		for i, T := range asc {
			sc := math.Max(T, 0)
			const q = "T=%v shift=%v s=%v"
			within(t, e.IntegralProdOneMinusF(T, shift, s), want[i], tol, sc, "∫S(u+shift)S(u) "+q, T, shift, s)
			within(t, e.IntegralUProdOneMinusF(T, shift, s), wantU[i], tol, sc*sc, "∫uS(u+shift)S(u) "+q, T, shift, s)
			p, u := e.IntegralProdBoth(T, shift, s)
			within(t, p, want[i], tol, sc, "ProdBoth plain "+q, T, shift, s)
			within(t, u, wantU[i], tol, sc*sc, "ProdBoth u "+q, T, shift, s)
			within(t, bp[i], want[i], tol, sc, "ProdBothBatch plain "+q, T, shift, s)
			within(t, bu[i], wantU[i], tol, sc*sc, "ProdBothBatch u "+q, T, shift, s)
		}
	}
}

// checkRatioGridOracle holds IntegralProdRatioGrid on the grid
// t = lo + k·h (k < G) to the exact cross term C(t) = ∫₀^{(r-1)t}
// S(u)·S(u+t) du within ProdRatioGridTol·(C + (r-1)·t), at every
// stride-th point and the last.
func checkRatioGridOracle(t testing.TB, e *ECDF, r, lo, h, s float64, G, stride int) {
	t.Helper()
	out := make([]float64, G)
	e.IntegralProdRatioGrid(r, lo, h, s, out)
	l := newExactLaw(e, s)
	rm1 := sub(exact(r), one)
	for k := 0; k < G; k++ {
		if k%stride != 0 && k != G-1 {
			continue
		}
		x := lo + float64(k)*h
		want, _ := l.prod([]num{mul(rm1, exact(x))}, exact(x))
		within(t, out[k], want[0], ProdRatioGridTol, want[0]+(r-1)*x,
			"ratio grid r=%v lo=%v h=%v s=%v point %d (t %v)", r, lo, h, s, k, x)
	}
}

// TestKernelMatchesWalkerProperty is the kernels' exactness gate: on
// random ECDFs, every pow and cross-term kernel, scalar and batch,
// must match the exact oracle's walk of the step law within kernelTol,
// and the fused cross terms must equal the two scalar cross-term walks
// bit for bit, for every combination of T placement, shift,
// s ∈ {1-ρ, 1}, and b ∈ {1,2,5,10}.
func TestKernelMatchesWalkerProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 60; trial++ {
		e := randomECDF(rng)
		Ts := kernelQueryPoints(e, rng)
		shifts := []float64{0, e.Min(), e.Max() / 3, e.Max() + 50, rng.Float64() * 800}
		for _, s := range []float64{1, 1 - rng.Float64()*0.3} { // s = 1 and s = 1-ρ
			checkKernels(t, e, s, Ts, shifts, []int{1, 2, 5, 10})
			for _, shift := range shifts {
				for _, T := range Ts {
					p0, u0 := e.IntegralProdBoth(T, shift, s)
					if w0 := e.IntegralProdOneMinusF(T, shift, s); p0 != w0 {
						t.Fatalf("prod fused: T=%v shift=%v s=%v got %v want %v", T, shift, s, p0, w0)
					}
					if wu := e.IntegralUProdOneMinusF(T, shift, s); u0 != wu {
						t.Fatalf("uprod fused: T=%v shift=%v s=%v got %v want %v", T, shift, s, u0, wu)
					}
				}
			}
		}
	}
}

// TestOracleKnownValues pins the oracle itself on hand-computed
// integrals, so the kernels are not checked against a wrong reference.
func TestOracleKnownValues(t *testing.T) {
	// F = 1/4 on [1, 3), 1/2 on [3, 5), 1 from 5; s = 1.
	l := newExactLaw(MustECDF([]float64{1, 3, 5, 5}), 1)
	for _, c := range []struct {
		T    float64
		b, m int
		want float64
	}{
		{0.5, 1, 0, 0.5},
		{2, 1, 0, 1 + 0.75},                   // 1 + (3/4)·1
		{10, 1, 0, 1 + 0.75*2 + 0.5*2},        // mass ends at 5
		{10, 2, 0, 1 + 0.5625*2 + 0.25*2},     // squared survival
		{4, 1, 1, 0.5 + 0.75*4 + 0.5*3.5},     // ∫u: ½ + ¾·(9-1)/2 + ½·(16-9)/2
		{10, 3, 1, 0.5 + 27.0/64*4 + 1.0/8*8}, // cubes: (¾)³, (½)³ on [3,5)
	} {
		if got := l.pow(c.T, c.b, c.m); got != c.want {
			t.Fatalf("pow(T=%v, b=%d, m=%d) = %v, want %v", c.T, c.b, c.m, got, c.want)
		}
	}
	// Cross term at shift 2: S(u)·S(u+2) is 1·¾ on [0, 1), ¾·½ on
	// [1, 3) and 0 from 3.
	if p, _ := l.prodAt(6, 2); p != 0.75+0.375*2 {
		t.Fatalf("prod(T=6, shift=2) = %v, want %v", p, 0.75+0.375*2)
	}
}

// TestKernelCacheCapMatchesFresh: past the 64-table cache cap a query
// for a new (s, b) builds its table without storing it. Every pow
// query then answers with the same bits a fresh ECDF's cached table
// gives, scalar and batch, both moments, and both stay within
// kernelTol of the oracle.
func TestKernelCacheCapMatchesFresh(t *testing.T) {
	e := randomECDF(rand.New(rand.NewSource(64)))
	fresh := &ECDF{xs: e.xs, cum: e.cum, cnt: e.cnt, n: e.n}
	for i := 0; i < maxPowKernels; i++ {
		e.IntegralOneMinusFPow(e.Max()/2, 0.5+float64(i)/1024, 3) // 64 unrelated keys
	}
	if got := len(e.TableKeys()); got != maxPowKernels {
		t.Fatalf("cache holds %d tables, want the cap %d", got, maxPowKernels)
	}
	const s = 0.9
	Ts := kernelQueryPoints(e, rand.New(rand.NewSource(65)))
	for i, x := range e.xs { // every segment of the table
		Ts = append(Ts, x)
		if i > 0 {
			Ts = append(Ts, 0.5*(e.xs[i-1]+x))
		}
	}
	sort.Float64s(Ts)
	l := newExactLaw(e, s)
	for _, b := range []int{1, 2, 8, 40} {
		tol := kernelTol(len(e.xs), b)
		batch, batchU := e.IntegralOneMinusFPowBatch(Ts, s, b), e.IntegralUOneMinusFPowBatch(Ts, s, b)
		fb, fbU := fresh.IntegralOneMinusFPowBatch(Ts, s, b), fresh.IntegralUOneMinusFPowBatch(Ts, s, b)
		for i, T := range Ts {
			got := [4]float64{e.IntegralOneMinusFPow(T, s, b), e.IntegralUOneMinusFPow(T, s, b), batch[i], batchU[i]}
			want := [4]float64{fresh.IntegralOneMinusFPow(T, s, b), fresh.IntegralUOneMinusFPow(T, s, b), fb[i], fbU[i]}
			for q := range got {
				if math.Float64bits(got[q]) != math.Float64bits(want[q]) {
					t.Fatalf("b=%d T=%v query %d: past the cap %v, fresh %v", b, T, q, got[q], want[q])
				}
			}
			sc := math.Max(T, 0)
			within(t, got[0], l.pow(T, b, 0), tol, sc, "capped ∫(1-sF)^b T=%v b=%d", T, b)
			within(t, got[1], l.pow(T, b, 1), tol, sc*sc, "capped ∫u(1-sF)^b T=%v b=%d", T, b)
		}
	}
	if got := len(e.TableKeys()); got != maxPowKernels {
		t.Fatalf("queries past the cap stored tables: %d keys", got)
	}
}

// FuzzKernels checks every kernel against the exact oracle: the pow
// integrals (scalar and batch, both moments) at power b ∈ [1, 8], the
// cross terms (scalar, fused, batch) at the given shift, and the ratio
// grid, on a random ECDF of at most 64 non-negative points —
// real-valued or integer support, optionally with a point mass at 0 —
// at the given T and at points the seed places around the support.
func FuzzKernels(f *testing.F) {
	f.Add(int64(1), uint8(40), false, false, 35.5, 12.25, 0.9, uint8(3))
	f.Add(int64(2), uint8(12), true, true, 7.0, 3.0, 1.0, uint8(8))
	f.Add(int64(3), uint8(1), false, true, 0.0, 0.0, 0.4, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, integer, zero bool, T, shift, s float64, b uint8) {
		for _, v := range []float64{T, shift, s} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+int(n)%64)
		for i := range xs {
			if integer {
				xs[i] = float64(1 + rng.Intn(25))
			} else {
				xs[i] = 1e-3 + rng.Float64()*100
			}
		}
		if zero {
			xs[0] = 0
		}
		e := MustECDF(xs)
		span := 1.5 * e.Max()
		if span == 0 {
			span = 1
		}
		T = math.Mod(math.Abs(T), span)
		shift = math.Mod(math.Abs(shift), span)
		sc := math.Mod(math.Abs(s), 1)
		if sc == 0 {
			sc = 1
		}
		Ts := []float64{T, 0, span}
		for k := 0; k < 6; k++ {
			x := e.xs[rng.Intn(len(e.xs))]
			Ts = append(Ts, x, x+rng.Float64()*span/10)
		}
		checkKernels(t, e, sc, Ts, []float64{shift, 0}, []int{1 + int(b)%8})
		r := 1 + math.Max(rng.Float64(), 1e-3)
		lo := 1e-3 + rng.Float64()*span
		h := (1e-4 + rng.Float64()) * span / 50
		if integer && rng.Intn(2) == 0 {
			lo, h = math.Round(lo)+1, 0.5 // events coincide on the grid
		}
		checkRatioGridOracle(t, e, r, lo, h, sc, 1+rng.Intn(401), 20)
	})
}
