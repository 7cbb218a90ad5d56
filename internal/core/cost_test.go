package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func TestCostContextReference(t *testing.T) {
	m := testEmpirical(t)
	cc, err := NewCostContext(context.Background(), m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cc.RefEJ <= 0 || math.IsInf(cc.RefEJ, 1) {
		t.Fatalf("bad reference EJ %v", cc.RefEJ)
	}
	// Single resubmission costs exactly 1 by construction (Eq. 6).
	if got := cc.Delta(cc.RefEJ, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Δcost(single) = %v, want 1", got)
	}
	// DeltaMultiple(1) re-optimizes the same strategy: Δ ≈ 1.
	_, _, delta, err := cc.DeltaMultiple(context.Background(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(delta-1) > 1e-6 {
		t.Fatalf("Δcost(b=1) = %v, want 1", delta)
	}
}

func TestDeltaMultipleIncreasing(t *testing.T) {
	// Table 4 right side: Δcost grows with b and exceeds 1 from b=2 —
	// multiple submission buys latency with grid load.
	m := testEmpirical(t)
	cc, err := NewCostContext(context.Background(), m, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.0
	for _, b := range []int{2, 3, 5, 8, 12, 20} {
		_, ev, delta, err := cc.DeltaMultiple(context.Background(), b, 1)
		if err != nil {
			t.Fatal(err)
		}
		if delta <= 1 {
			t.Errorf("Δcost(b=%d) = %v, want > 1", b, delta)
		}
		if delta <= prev {
			t.Errorf("Δcost(b=%d) = %v not increasing (prev %v)", b, delta, prev)
		}
		if ev.Parallel != float64(b) {
			t.Errorf("Parallel = %v, want %d", ev.Parallel, b)
		}
		prev = delta
	}
}

func TestOptimizeDelayedCostBeatsSingle(t *testing.T) {
	// The paper's §7 headline: on 2006-IX the delayed strategy can be
	// tuned to Δcost < 1 — faster than single resubmission *and*
	// lighter on the grid.
	m := testEmpirical(t)
	cc, err := NewCostContext(context.Background(), m, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cc.OptimizeDelayedCost(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Params.Validate(); err != nil {
		t.Fatalf("optimizer returned invalid params: %v", err)
	}
	if !(res.Delta < 1) {
		t.Fatalf("min Δcost = %v, want < 1 on 2006-IX-style trace", res.Delta)
	}
	if !(res.Eval.EJ < cc.RefEJ) {
		t.Fatalf("cost optimum EJ %v should still beat single %v", res.Eval.EJ, cc.RefEJ)
	}
	// Integer lattice, as the paper restricts Table 5.
	if res.Params.T0 != math.Trunc(res.Params.T0) || res.Params.TInf != math.Trunc(res.Params.TInf) {
		t.Fatalf("params not integers: %+v", res.Params)
	}
}

func TestDeltaDelayedConsistency(t *testing.T) {
	m := testEmpirical(t)
	cc, err := NewCostContext(context.Background(), m, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := DelayedParams{T0: 300, TInf: 420}
	ev, delta, err := cc.DeltaDelayed(p)
	if err != nil {
		t.Fatal(err)
	}
	want := ev.Parallel * ev.EJ / cc.RefEJ
	if math.Abs(delta-want) > 1e-12 {
		t.Fatalf("Δ = %v, want %v", delta, want)
	}
	if _, _, err := cc.DeltaDelayed(DelayedParams{T0: -1, TInf: 5}); err == nil {
		t.Fatal("invalid params should error")
	}
}

func TestCostStability(t *testing.T) {
	m := testEmpirical(t)
	cc, err := NewCostContext(context.Background(), m, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cc.OptimizeDelayedCost(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	// Radius 0: only the point itself.
	s0 := cc.CostStability(res.Params, 0)
	if math.Abs(s0.MaxDelta-res.Delta) > 1e-9 || s0.MaxRelDiff > 1e-9 {
		t.Fatalf("radius-0 stability should be the point itself: %+v", s0)
	}
	// Radius 5 (the paper's probe): bounded degradation.
	s5 := cc.CostStability(res.Params, 5)
	if s5.MaxDelta < res.Delta {
		t.Fatalf("max over neighborhood %v below center %v", s5.MaxDelta, res.Delta)
	}
	if s5.MaxRelDiff > 0.2 {
		t.Fatalf("±5 s perturbation should stay within ~15%%: got %.1f%%", s5.MaxRelDiff*100)
	}
	if s5.Evaluations == 0 {
		t.Fatal("no feasible perturbations evaluated")
	}
	if neg := cc.CostStability(res.Params, -1); !math.IsNaN(neg.MaxDelta) {
		t.Fatal("negative radius should give NaN")
	}
	// Invalid center: NaN result.
	bad := cc.CostStability(DelayedParams{T0: -1, TInf: 3}, 2)
	if !math.IsNaN(bad.MaxDelta) {
		t.Fatal("invalid center should give NaN")
	}
}

func TestCostContextFailsWithoutSuccessMass(t *testing.T) {
	// A model whose latencies all exceed the timeout bound cannot
	// anchor a cost reference... but OptimizeSingle still finds the
	// point mass if any exists; construct a truly hopeless model via
	// rho ≈ 1 being rejected earlier, so instead verify the error path
	// with an upper bound below all support.
	m := hopelessModel{}
	if _, err := NewCostContext(context.Background(), m, 1); err == nil {
		t.Fatal("hopeless model should fail to anchor")
	}
}

// hopelessModel has no success mass anywhere below its upper bound.
type hopelessModel struct{}

func (hopelessModel) Ftilde(float64) float64 { return 0 }
func (hopelessModel) Rho() float64           { return 0.99 }
func (hopelessModel) UpperBound() float64    { return 100 }
func (hopelessModel) IntOneMinusFPow(T float64, b int) float64 {
	if T < 0 {
		return 0
	}
	return T
}
func (hopelessModel) IntUOneMinusFPow(T float64, b int) float64 {
	if T < 0 {
		return 0
	}
	return T * T / 2
}
func (hopelessModel) IntProdOneMinusF(T, shift float64) float64 {
	if T < 0 {
		return 0
	}
	return T
}
func (hopelessModel) IntUProdOneMinusF(T, shift float64) float64 {
	if T < 0 {
		return 0
	}
	return T * T / 2
}
func (hopelessModel) Sample(*rand.Rand) float64 { return math.Inf(1) }
