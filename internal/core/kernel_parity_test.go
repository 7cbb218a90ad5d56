package core

import (
	"context"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"gridstrat/internal/stats"
)

// scalarOnly strips the optional BatchIntegrals / ProdBothIntegrals
// extensions from a model by embedding the bare interface, so every
// optimizer scans it through the pointwise adapter over its scalar
// methods.
type scalarOnly struct{ Model }

// oracleModel is scanned point by point like scalarOnly, but answers
// its pow integrals exactly instead of through the prefix-sum kernels:
// sums over the ECDF's step law in exact dyadic arithmetic (exactNum),
// rounded once to float64. Its cross terms are the scalar kernels.
type oracleModel struct {
	Model
	xs []float64
	// pre[b][m][k] = ∫₀^{xs[k-1]} u^m·S^b for S = 1 - (1-ρ)·F, and
	// seg[b][k] = S^b once k support points are passed; built for
	// every b <= maxB up front, so concurrent scans only read them.
	pre [][2][]num
	seg [][]num
}

// The oracle's arithmetic, as in internal/stats' test oracle: every
// float64 is a dyadic rational, and so is every sum, difference and
// product of them, so big.Float operations that size each result's
// mantissa to hold it never round (each checks that it did not). This
// is exact like big.Rat, without its GCD normalisation on every step.
type num = *big.Float

func exactNum(x float64) num { return new(big.Float).SetFloat64(x) }

// checkedNum returns z, or panics if the operation that made it
// rounded.
func checkedNum(z num) num {
	if z.Acc() != big.Exact {
		panic("oracle: inexact operation")
	}
	return z
}

func mulNum(a, b num) num {
	return checkedNum(new(big.Float).SetPrec(a.MinPrec()+b.MinPrec()+1).Mul(a, b))
}

// addNum sizes the sum to span from the lowest set bit of either
// operand to one above the highest (the carry).
func addNum(a, b num) num {
	switch {
	case a.Sign() == 0:
		return new(big.Float).Copy(b)
	case b.Sign() == 0:
		return new(big.Float).Copy(a)
	}
	ea, eb := a.MantExp(nil), b.MantExp(nil)
	lo := min(ea-int(a.MinPrec()), eb-int(b.MinPrec()))
	return checkedNum(new(big.Float).SetPrec(uint(max(ea, eb)+1-lo)).Add(a, b))
}

func subNum(a, b num) num { return addNum(a, new(big.Float).Neg(b)) }

func newOracleModel(m *EmpiricalModel, maxB int) oracleModel {
	e := m.ECDF()
	o := oracleModel{Model: m, xs: e.Support()}
	s := exactNum(1 - m.Rho())
	one := exactNum(1)
	sv := []num{one}
	for _, x := range o.xs {
		sv = append(sv, subNum(one, mulNum(exactNum(e.Eval(x)), s)))
	}
	o.pre = make([][2][]num, maxB+1)
	o.seg = make([][]num, maxB+1)
	for b := 1; b <= maxB; b++ {
		for k := range sv {
			v := one
			for i := 0; i < b; i++ {
				v = mulNum(v, sv[k])
			}
			o.seg[b] = append(o.seg[b], v)
		}
		a := new(big.Float)
		for m := range o.pre[b] {
			o.pre[b][m] = []num{new(big.Float)}
		}
		for k, x := range o.xs {
			xr := exactNum(x)
			for m := range o.pre[b] {
				p := o.pre[b][m]
				o.pre[b][m] = append(p, addNum(p[k], segIntNum(a, xr, o.seg[b][k], m)))
			}
			a = xr
		}
	}
	return o
}

// segIntNum returns c·∫_a^b u^m du.
func segIntNum(a, b, c num, m int) num {
	if m == 0 {
		return mulNum(subNum(b, a), c)
	}
	return mulNum(mulNum(subNum(mulNum(b, b), mulNum(a, a)), exactNum(0.5)), c)
}

func (o oracleModel) integral(T float64, b, m int) float64 {
	if T <= 0 {
		return 0
	}
	k := sort.SearchFloat64s(o.xs, T)
	a := new(big.Float)
	if k > 0 {
		a = exactNum(o.xs[k-1])
	}
	v, _ := addNum(o.pre[b][m][k], segIntNum(a, exactNum(T), o.seg[b][k], m)).Float64()
	return v
}

func (o oracleModel) IntOneMinusFPow(T float64, b int) float64  { return o.integral(T, b, 0) }
func (o oracleModel) IntUOneMinusFPow(T float64, b int) float64 { return o.integral(T, b, 1) }

func parityModel(t *testing.T, seed int64, rho float64) *EmpiricalModel {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sample := make([]float64, 1200)
	for i := range sample {
		sample[i] = rng.ExpFloat64()*450 + 30
	}
	m, err := NewEmpiricalModel(stats.MustECDF(sample), rho, 10000)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBatchOptimizersMatchScalarPath is the cross-layer exactness gate
// of the kernelized engine: every optimizer that detects
// BatchIntegrals must return bit-identical results with the extension
// hidden (the pointwise adapter over the scalar kernels) and visible
// (swept batch kernels), at several worker counts. With the pow
// integrals answered exactly (oracleModel) the multiple-submission
// optima and curve must agree to 1e-9 in t∞ and 1e-12 in EJ and σ,
// and the delayed optimum and its evaluation to 1e-9, the tolerance
// of its Nelder–Mead polish.
func TestBatchOptimizersMatchScalarPath(t *testing.T) {
	ctx := context.Background()
	for _, rho := range []float64{0, 0.17} {
		m := parityModel(t, 42, rho)
		sm := scalarOnly{m}
		wm := newOracleModel(m, 5)
		for _, x := range []Model{sm, wm} {
			if _, ok := x.(BatchIntegrals); ok {
				t.Fatalf("%T must hide the batch extension", x)
			}
		}

		for _, b := range []int{1, 3, 5} {
			for _, workers := range []int{1, 4} {
				tb, evb, err := OptimizeMultiple(ctx, m, b, workers)
				if err != nil {
					t.Fatal(err)
				}
				ts, evs, err := OptimizeMultiple(ctx, sm, b, workers)
				if err != nil {
					t.Fatal(err)
				}
				if tb != ts || evb != evs {
					t.Fatalf("b=%d workers=%d: batch (%v, %+v) != scalar (%v, %+v)", b, workers, tb, evb, ts, evs)
				}
				tw, evw, err := OptimizeMultiple(ctx, wm, b, workers)
				if err != nil {
					t.Fatal(err)
				}
				if relDiff(tw, tb) > 1e-9 || relDiff(evw.EJ, evb.EJ) > 1e-12 || relDiff(evw.Sigma, evb.Sigma) > 1e-12 {
					t.Fatalf("b=%d workers=%d: oracle (%v, %+v) vs kernel (%v, %+v)", b, workers, tw, evw, tb, evb)
				}
			}
		}
		_, ejw := MultipleCurve(wm, 5, 2000, 2000)
		_, ejk := MultipleCurve(m, 5, 2000, 2000)
		for i := range ejk {
			if relDiff(ejw[i], ejk[i]) > 1e-12 {
				t.Fatalf("MultipleCurve[%d]: oracle %v vs kernel %v", i, ejw[i], ejk[i])
			}
		}

		tsb, ejb := MultipleCurve(m, 4, 2000, 250)
		tss, ejs := MultipleCurve(sm, 4, 2000, 250)
		for i := range tsb {
			if tsb[i] != tss[i] || ejb[i] != ejs[i] {
				t.Fatalf("MultipleCurve[%d]: batch (%v, %v) != scalar (%v, %v)", i, tsb[i], ejb[i], tss[i], ejs[i])
			}
		}

		pb, evb, err := OptimizeDelayed(ctx, m, 1)
		if err != nil {
			t.Fatal(err)
		}
		ps, evs, err := OptimizeDelayed(ctx, sm, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pb != ps || evb != evs {
			t.Fatalf("OptimizeDelayed: batch (%+v, %+v) != scalar (%+v, %+v)", pb, evb, ps, evs)
		}
		pw, evw, err := OptimizeDelayed(ctx, wm, 1)
		if err != nil {
			t.Fatal(err)
		}
		// The Nelder–Mead polish stops at tolerance 1e-9, so the
		// objective's last-bit differences move the optimum within it.
		if relDiff(pw.T0, pb.T0) > 1e-9 || relDiff(pw.TInf, pb.TInf) > 1e-9 ||
			relDiff(evw.EJ, evb.EJ) > 1e-9 || relDiff(evw.Sigma, evb.Sigma) > 1e-9 || relDiff(evw.Parallel, evb.Parallel) > 1e-9 {
			t.Fatalf("OptimizeDelayed: oracle (%+v, %+v) vs kernel (%+v, %+v)", pw, evw, pb, evb)
		}

		ratios := []float64{1.3, 2.0}
		pbs, evbs, err := OptimizeDelayedRatios(ctx, m, ratios, 2)
		if err != nil {
			t.Fatal(err)
		}
		pss, evss, err := OptimizeDelayedRatios(ctx, sm, ratios, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, ratio := range ratios {
			if pbs[i] != pss[i] || evbs[i] != evss[i] {
				t.Fatalf("ratio %v: batch (%+v, %+v) != scalar (%+v, %+v)", ratio, pbs[i], evbs[i], pss[i], evss[i])
			}
		}

		ccb, err := NewCostContext(ctx, m, 1)
		if err != nil {
			t.Fatal(err)
		}
		ccs, err := NewCostContext(ctx, sm, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ccb.RefTimeout != ccs.RefTimeout || ccb.RefEJ != ccs.RefEJ {
			t.Fatalf("cost baselines diverged: %+v vs %+v", ccb, ccs)
		}
		rb, err := ccb.OptimizeDelayedCost(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := ccs.OptimizeDelayedCost(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rb != rs {
			t.Fatalf("OptimizeDelayedCost: batch %+v != scalar %+v", rb, rs)
		}
	}
}

// TestScalarOnlyOptimizersHonorCancellation: models without batch
// kernels (a stripped empirical model, a quadrature-backed parametric
// one) run through the pointwise adapter, and a pre-cancelled context
// must still surface as context.Canceled from every optimizer.
func TestScalarOnlyOptimizersHonorCancellation(t *testing.T) {
	pm, err := NewParametricModel(stats.NewLogNormal(5.5, 0.8), 0.1, 10000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, m := range map[string]Model{"scalarOnly": scalarOnly{parityModel(t, 42, 0.1)}, "parametric": pm} {
		cc, err := NewCostContext(context.Background(), m, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			if _, _, err := OptimizeMultiple(ctx, m, 3, workers); err != context.Canceled {
				t.Fatalf("%s workers %d: OptimizeMultiple err = %v, want context.Canceled", name, workers, err)
			}
			if _, _, err := OptimizeDelayed(ctx, m, workers); err != context.Canceled {
				t.Fatalf("%s workers %d: OptimizeDelayed err = %v, want context.Canceled", name, workers, err)
			}
			if _, _, err := OptimizeDelayedRatios(ctx, m, []float64{1.5}, workers); err != context.Canceled {
				t.Fatalf("%s workers %d: OptimizeDelayedRatios err = %v, want context.Canceled", name, workers, err)
			}
			if _, err := cc.OptimizeDelayedCost(ctx, workers); err != context.Canceled {
				t.Fatalf("%s workers %d: OptimizeDelayedCost err = %v, want context.Canceled", name, workers, err)
			}
		}
	}
}

// TestKernelIntegralsMatchWalkersOnModel re-checks the four Model
// integral methods through the EmpiricalModel's s = 1-ρ scaling: the
// pow integrals against the exact oracle's walk of the step law, the
// cross terms against the ECDF's own cross-term walks.
func TestKernelIntegralsMatchWalkersOnModel(t *testing.T) {
	m := parityModel(t, 7, 0.12)
	e := m.ECDF()
	s := 1 - m.Rho()
	o := newOracleModel(m, 10)
	for _, T := range []float64{0, 25, 333.25, 5000, 20000} {
		for _, b := range []int{1, 2, 5, 10} {
			if got, want := m.IntOneMinusFPow(T, b), o.IntOneMinusFPow(T, b); relDiff(got, want) > 1e-12 {
				t.Fatalf("IntOneMinusFPow(%v, %d) = %v, exact %v", T, b, got, want)
			}
			if got, want := m.IntUOneMinusFPow(T, b), o.IntUOneMinusFPow(T, b); relDiff(got, want) > 1e-12 {
				t.Fatalf("IntUOneMinusFPow(%v, %d) = %v, exact %v", T, b, got, want)
			}
		}
		for _, shift := range []float64{0, 100, 7000} {
			if got, want := m.IntProdOneMinusF(T, shift), e.IntegralProdOneMinusF(T, shift, s); got != want {
				t.Fatalf("IntProdOneMinusF(%v, %v) = %v, ECDF %v", T, shift, got, want)
			}
			if got, want := m.IntUProdOneMinusF(T, shift), e.IntegralUProdOneMinusF(T, shift, s); got != want {
				t.Fatalf("IntUProdOneMinusF(%v, %v) = %v, ECDF %v", T, shift, got, want)
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if ab := b; ab > 1 || ab < -1 {
		if ab < 0 {
			ab = -ab
		}
		scale = ab
	}
	return d / scale
}

// TestHugeExponentNoOverflow guards the float→int exponent conversions
// against the pre-kernel behaviour: CDFs and survival functions at
// astronomically large times must return their limits, not crash on an
// overflowed integer exponent.
func TestHugeExponentNoOverflow(t *testing.T) {
	m := parityModel(t, 3, 0.1) // latencies ≈ Exp(450)+30: mass above 50
	cdf := MultipleCDF(m, 2, 50)
	// k = floor(1e21/50) = 2e19 >= 2^62: must take the math.Pow branch
	// and return the q^k → 0 limit, i.e. certain success.
	if got := cdf(1e21); got != 1 {
		t.Fatalf("MultipleCDF at huge t/tInf = %v, want 1", got)
	}
	p := DelayedParams{T0: 100, TInf: 150}
	if got := DelayedSurvival(m, p, 1e21); got != 0 {
		t.Fatalf("DelayedSurvival at huge t/T0 = %v, want 0", got)
	}
	// A zero-success-mass timeout keeps its historical limit (q = 1).
	if got := MultipleCDF(m, 2, 1e-9)(1e10); got != 0 {
		t.Fatalf("MultipleCDF with no success mass = %v, want 0", got)
	}
}
