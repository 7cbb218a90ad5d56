package gridstrat

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"gridstrat/internal/core"
	"gridstrat/internal/optimize"
	"gridstrat/internal/workload"
)

// legacyRecommend is the seed's pre-Planner advisor algorithm, kept
// verbatim as a reference: the Planner must reproduce it exactly. It
// optimizes one ratio per call, so it also proves that the Planner's
// shared ratio search equals per-ratio searches.
func legacyRecommend(m Model, maxParallel float64) (Recommendation, error) {
	return legacyRecommendWith(m, maxParallel, core.OptimizeDelayedRatio)
}

// legacyRecommendWith is legacyRecommend with the per-ratio delayed
// optimizer as a parameter.
func legacyRecommendWith(m Model, maxParallel float64, optimizeRatio func(core.Model, float64) (DelayedParams, Evaluation)) (Recommendation, error) {
	cc, err := core.NewCostContext(m)
	if err != nil {
		return Recommendation{}, err
	}
	best := Recommendation{
		Strategy: StrategySingle,
		TInf:     cc.RefTimeout,
		Eval:     Evaluation{EJ: cc.RefEJ, Sigma: core.SigmaSingle(m, cc.RefTimeout), Parallel: 1},
		Delta:    1,
	}
	if b := int(maxParallel); b >= 2 {
		tInf, ev, delta := cc.DeltaMultiple(b)
		if ev.EJ < best.Eval.EJ {
			best = Recommendation{Strategy: StrategyMultiple, TInf: tInf, B: b, Eval: ev, Delta: delta}
		}
	}
	for _, ratio := range []float64{1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0} {
		p, ev := optimizeRatio(m, ratio)
		if math.IsInf(ev.EJ, 1) || ev.Parallel > maxParallel {
			continue
		}
		if ev.EJ < best.Eval.EJ {
			best = Recommendation{
				Strategy: StrategyDelayed, Delayed: p, Eval: ev,
				Delta: cc.Delta(ev.EJ, ev.Parallel),
			}
		}
	}
	return best, nil
}

func sameRecommendation(a, b Recommendation) bool {
	const tol = 1e-9
	close := func(x, y float64) bool {
		return math.Abs(x-y) <= tol*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	return a.Strategy == b.Strategy && a.B == b.B &&
		close(a.TInf, b.TInf) &&
		close(a.Delayed.T0, b.Delayed.T0) && close(a.Delayed.TInf, b.Delayed.TInf) &&
		close(a.Eval.EJ, b.Eval.EJ) && close(a.Delta, b.Delta)
}

// TestPlannerRecommendMatchesLegacyOnPaperDatasets replays the advisor
// on every paper dataset through both the reference algorithm and the
// Planner (memoized model, ctx-threaded optimizers) and requires
// identical answers.
func TestPlannerRecommendMatchesLegacyOnPaperDatasets(t *testing.T) {
	specs := PaperDatasets()
	if testing.Short() || raceEnabled {
		// The full 12-dataset sweep dominates the race build's runtime
		// without adding race coverage (the loop is sequential); three
		// datasets keep the pinning meaningful there.
		specs = specs[:3]
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			tr, err := SynthesizeDataset(spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := ModelFromTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range []float64{1, 1.5, 4} {
				want, err := legacyRecommend(m, budget)
				if err != nil {
					t.Fatal(err)
				}
				p, err := NewPlanner(m, WithMaxParallel(budget))
				if err != nil {
					t.Fatal(err)
				}
				got, err := p.Recommend()
				if err != nil {
					t.Fatal(err)
				}
				if !sameRecommendation(got, want) {
					t.Fatalf("budget %v: planner %+v, legacy %+v", budget, got, want)
				}
			}
		})
	}
}

// oracleDelayedRatio is the exhaustive per-ratio t0 scan the Brent
// polish replaced: five GridScan1D rounds of 401 points over
// [ub·1e-3, ub/2], each refining around the incumbent, on EJDelayed.
func oracleDelayedRatio(m core.Model, ratio float64) (DelayedParams, Evaluation) {
	fb := func(t0s []float64) []float64 {
		out := make([]float64, len(t0s))
		for i, t0 := range t0s {
			out[i] = core.EJDelayed(m, DelayedParams{T0: t0, TInf: ratio * t0})
		}
		return out
	}
	ub := m.UpperBound()
	r := optimize.GridScan1D(fb, ub*1e-3, ub/2, 400, 4, 1)
	p := DelayedParams{T0: r.X, TInf: ratio * r.X}
	ev, err := core.DelayedEvaluate(m, p)
	if err != nil {
		return p, Evaluation{EJ: math.Inf(1), Sigma: math.Inf(1), Parallel: 1}
	}
	return p, ev
}

// TestRecommendMatchesOracleScanOnPaperDatasets: against the advisor
// run on the exhaustive per-ratio scan, Recommend picks the same
// strategy and collection size at every budget, with EJ at most the
// oracle's times (1+1e-9).
func TestRecommendMatchesOracleScanOnPaperDatasets(t *testing.T) {
	specs := PaperDatasets()
	if testing.Short() || raceEnabled {
		// Same trim as TestPlannerRecommendMatchesLegacyOnPaperDatasets.
		specs = specs[:3]
	}
	for _, spec := range specs {
		tr, err := SynthesizeDataset(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ModelFromTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		oracle := map[float64]Recommendation{}
		oracleRatio := func(m core.Model, ratio float64) (DelayedParams, Evaluation) {
			if r, ok := oracle[ratio]; ok {
				return r.Delayed, r.Eval
			}
			p, ev := oracleDelayedRatio(m, ratio)
			oracle[ratio] = Recommendation{Delayed: p, Eval: ev}
			return p, ev
		}
		for _, budget := range []float64{1, 1.5, 2, 4} {
			want, err := legacyRecommendWith(m, budget, oracleRatio)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPlanner(m, WithMaxParallel(budget))
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Recommend()
			if err != nil {
				t.Fatal(err)
			}
			if got.Strategy != want.Strategy || got.B != want.B || !(got.Eval.EJ <= want.Eval.EJ*(1+1e-9)) {
				t.Fatalf("%s budget %v: planner %+v, oracle %+v", spec.Name, budget, got, want)
			}
		}
	}
}

// countingModel counts how often each integral hits the base model so
// the Planner's memoization is observable.
type countingModel struct {
	Model
	calls int64
	uprod int64 // IntUProdOneMinusF calls alone
}

func (c *countingModel) Ftilde(t float64) float64 {
	atomic.AddInt64(&c.calls, 1)
	return c.Model.Ftilde(t)
}

func (c *countingModel) IntOneMinusFPow(T float64, b int) float64 {
	atomic.AddInt64(&c.calls, 1)
	return c.Model.IntOneMinusFPow(T, b)
}

func (c *countingModel) IntUOneMinusFPow(T float64, b int) float64 {
	atomic.AddInt64(&c.calls, 1)
	return c.Model.IntUOneMinusFPow(T, b)
}

func (c *countingModel) IntProdOneMinusF(T, shift float64) float64 {
	atomic.AddInt64(&c.calls, 1)
	return c.Model.IntProdOneMinusF(T, shift)
}

func (c *countingModel) IntUProdOneMinusF(T, shift float64) float64 {
	atomic.AddInt64(&c.calls, 1)
	atomic.AddInt64(&c.uprod, 1)
	return c.Model.IntUProdOneMinusF(T, shift)
}

// TestRecommendUWeightedCrossTermOnlyInFinalEvaluations requires the
// per-ratio t0 scans to skip the u-weighted cross term: a cold
// Recommend may walk it only for the final DelayedEvaluate of each
// ratio (σJ needs it), not once per scan point.
func TestRecommendUWeightedCrossTermOnlyInFinalEvaluations(t *testing.T) {
	cm := &countingModel{Model: refModel(t)}
	p, err := NewPlanner(cm, WithMaxParallel(1.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Recommend(); err != nil {
		t.Fatal(err)
	}
	if n, bound := atomic.LoadInt64(&cm.uprod), int64(2*len(delayedRatioGrid)); n > bound {
		t.Fatalf("cold Recommend made %d IntUProdOneMinusF calls, want <= %d", n, bound)
	} else {
		t.Logf("cold Recommend: %d IntUProdOneMinusF calls, %d base calls in all", n, atomic.LoadInt64(&cm.calls))
	}
}

// TestPlannerMemoizesModelEvaluations requires a repeated query on one
// Planner to be (nearly) free in terms of base-model work.
func TestPlannerMemoizesModelEvaluations(t *testing.T) {
	cm := &countingModel{Model: refModel(t)}
	p, err := NewPlanner(cm, WithMaxParallel(1.5))
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := atomic.LoadInt64(&cm.calls)
	if afterFirst == 0 {
		t.Fatal("counting model never consulted")
	}
	second, err := p.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	afterSecond := atomic.LoadInt64(&cm.calls)
	if !sameRecommendation(first, second) {
		t.Fatalf("repeated query changed the answer: %+v vs %+v", first, second)
	}
	if extra := afterSecond - afterFirst; extra > afterFirst/100 {
		t.Fatalf("second query cost %d base evaluations (first cost %d); memoization broken", extra, afterFirst)
	}
}

// TestPlannerContextCancellation checks both a pre-cancelled context
// (deterministic error identity) and a mid-flight deadline (the
// optimization must abort quickly instead of running to completion).
func TestPlannerContextCancellation(t *testing.T) {
	m := refModel(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := NewPlanner(m, WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Recommend(); err != context.Canceled {
		t.Fatalf("pre-cancelled Recommend: %v, want context.Canceled", err)
	}
	if _, err := p.RecommendCheapest(); err != context.Canceled {
		t.Fatalf("pre-cancelled RecommendCheapest: %v, want context.Canceled", err)
	}
	if _, _, err := p.Optimize(Delayed{}); err != context.Canceled {
		t.Fatalf("pre-cancelled Optimize: %v, want context.Canceled", err)
	}
	if _, err := p.Simulate(Single{TInf: 500}, 100000); err != context.Canceled {
		t.Fatalf("pre-cancelled Simulate: %v, want context.Canceled", err)
	}

	tctx, tcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer tcancel()
	p2, err := NewPlanner(m, WithContext(tctx))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := p2.Recommend(); err == nil {
		t.Fatal("Recommend survived a 5ms deadline")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; the optimizers are not checking the context", elapsed)
	}
}

// scalarOnlyModel hides the optional batch and fused cross-term
// extensions of the model it embeds, so the optimizers scan it through
// the pointwise adapter.
type scalarOnlyModel struct{ Model }

// TestPlannerContextCancellationScalarOnly is the mid-flight deadline
// check for a model without batch kernels: its scans run as pointwise
// chunked sweeps, and a 5ms deadline must still abort a Recommend that
// runs far longer uncancelled, at sequential and parallel execution.
func TestPlannerContextCancellationScalarOnly(t *testing.T) {
	m := scalarOnlyModel{refModel(t)}
	if _, ok := Model(m).(BatchIntegrals); ok {
		t.Fatal("scalarOnlyModel must hide the batch extension")
	}
	const deadline = 5 * time.Millisecond
	full, err := NewPlanner(m, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := full.Recommend(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 10*deadline {
		t.Fatalf("uncancelled Recommend took only %v; the deadline check below proves nothing", elapsed)
	}
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		p, err := NewPlanner(m, WithParallelism(par), WithContext(ctx))
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		start := time.Now()
		_, err = p.Recommend()
		elapsed := time.Since(start)
		cancel()
		if err == nil {
			t.Fatalf("parallelism %d: Recommend survived a 5ms deadline", par)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("parallelism %d: cancellation took %v", par, elapsed)
		}
	}
}

// TestPlannerOptions exercises the option validation surface.
func TestPlannerOptions(t *testing.T) {
	m := refModel(t)
	if _, err := NewPlanner(nil); err == nil {
		t.Fatal("nil model should fail")
	}
	bad := []PlannerOption{
		WithMaxParallel(0.5),
		WithMaxParallel(math.NaN()),
		WithMaxParallel(math.Inf(1)),
		WithDeadline(0),
		WithBudget(-1),
		WithBudget(math.NaN()),
		WithContext(nil),
		WithRand(nil),
		WithCollectionSize(0),
	}
	for i, opt := range bad {
		if _, err := NewPlanner(m, opt); err == nil {
			t.Fatalf("bad option %d accepted", i)
		}
	}
	if _, err := NewPlanner(m,
		WithMaxParallel(3), WithDeadline(600), WithBudget(2),
		WithContext(context.Background()), WithRand(rand.New(rand.NewSource(9))),
		WithCollectionSize(4)); err != nil {
		t.Fatal(err)
	}
	// Zero budget is the documented "no ceiling" sentinel.
	if _, err := NewPlanner(m, WithBudget(0)); err != nil {
		t.Fatal(err)
	}
}

// TestPlannerBudgetCeiling checks the Δcost ceiling: expensive
// configurations drop out of Recommend and Rank.
func TestPlannerBudgetCeiling(t *testing.T) {
	m := refModel(t)
	// Without a ceiling a 5-copy budget picks multiple (Δ ≈ 1.8).
	free, err := NewPlanner(m, WithMaxParallel(5))
	if err != nil {
		t.Fatal(err)
	}
	r, err := free.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if r.Strategy != StrategyMultiple {
		t.Fatalf("unbounded pick %v", r.Strategy)
	}
	// A Δcost ceiling of 1.05 excludes it.
	capped, err := NewPlanner(m, WithMaxParallel(5), WithBudget(1.05))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := capped.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if rc.Strategy == StrategyMultiple {
		t.Fatalf("Δcost ceiling ignored: picked %v at Δ=%v", rc.Strategy, rc.Delta)
	}
	if rc.Delta > 1.05 {
		t.Fatalf("recommendation over budget: Δ=%v", rc.Delta)
	}
	ranked, err := capped.Rank(Single{}, Multiple{B: 5}, Delayed{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ranked {
		if e.Delta > 1.05 {
			t.Fatalf("Rank kept over-budget entry %v (Δ=%v)", e.Strategy, e.Delta)
		}
	}
}

// TestPlannerResolvePartialParams checks that partially specified
// strategies surface their validation error instead of being silently
// re-optimized (which would discard the pinned knob).
func TestPlannerResolvePartialParams(t *testing.T) {
	m := refModel(t)
	p, err := NewPlanner(m)
	if err != nil {
		t.Fatal(err)
	}
	app := Application{Tasks: 100, WaveWidth: 20, Runtime: 60}
	if _, err := p.EstimateMakespanUnder(app, Delayed{T0: 600}); err == nil {
		t.Fatal("Delayed with only T0 set should error, not silently retune T0")
	}
	if _, err := p.Rank(Delayed{TInf: 400}); err == nil {
		t.Fatal("Delayed with only TInf set should error")
	}
	if _, err := p.Rank(Multiple{B: 3, TInf: -500}); err == nil {
		t.Fatal("negative timeout should error, not silently retune")
	}
	if _, err := p.Rank(Single{TInf: math.NaN()}); err == nil {
		t.Fatal("NaN timeout should error, not silently retune")
	}
	// Fully unset still optimizes.
	if _, err := p.Rank(Delayed{}); err != nil {
		t.Fatal(err)
	}
}

// TestPlannerRank checks ordering and the default strategy set.
func TestPlannerRank(t *testing.T) {
	m := refModel(t)
	p, err := NewPlanner(m, WithCollectionSize(4))
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := p.Rank()
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("%d entries", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Eval.EJ < ranked[i-1].Eval.EJ {
			t.Fatal("Rank output not sorted by EJ")
		}
	}
	// On 2006-IX: multiple(b=4) < delayed < single on EJ.
	if ranked[0].Strategy.Name() != StrategyMultiple || ranked[2].Strategy.Name() != StrategySingle {
		t.Fatalf("unexpected order: %v, %v, %v",
			ranked[0].Strategy.Name(), ranked[1].Strategy.Name(), ranked[2].Strategy.Name())
	}
}

// TestPlannerDeadline checks CompareDeadline against the legacy free
// function and the configuration errors.
func TestPlannerDeadline(t *testing.T) {
	m := refModel(t)
	noDeadline, err := NewPlanner(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noDeadline.CompareDeadline(); err == nil {
		t.Fatal("CompareDeadline without WithDeadline should fail")
	}
	p, err := NewPlanner(m, WithDeadline(900), WithCollectionSize(3))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.CompareDeadline()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.CompareDeadline(m, 900, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Single.Probability != want.Single.Probability ||
		rep.Multiple.Probability != want.Multiple.Probability {
		t.Fatalf("planner deadline report differs from legacy: %+v vs %+v", rep, want)
	}
}

// TestPlannerMakespan checks the makespan facade and collection
// sizing.
func TestPlannerMakespan(t *testing.T) {
	m := refModel(t)
	app := Application{Tasks: 200, WaveWidth: 50, Runtime: 60}
	p, err := NewPlanner(m, WithMaxParallel(4), WithDeadline(4000))
	if err != nil {
		t.Fatal(err)
	}
	est, err := p.EstimateMakespan(app)
	if err != nil {
		t.Fatal(err)
	}
	if !(est.Makespan > 0) {
		t.Fatalf("makespan %v", est.Makespan)
	}
	ests, err := p.CompareMakespan(app, Single{}, Multiple{B: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 2 || !(ests[1].Makespan < ests[0].Makespan) {
		t.Fatalf("b=4 should beat single: %+v", ests)
	}
	b, sized, err := p.SmallestCollection(app, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b == 0 || sized.Makespan > 4000 {
		t.Fatalf("sizing picked b=%d makespan=%v", b, sized.Makespan)
	}
	// Explicit-strategy estimation matches the legacy free function.
	tuned, _, err := p.Optimize(Multiple{B: 4})
	if err != nil {
		t.Fatal(err)
	}
	under, err := p.EstimateMakespanUnder(app, tuned)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := workload.EstimateMakespan(app, workload.MultipleStrategy(m, 4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(under.Makespan-legacy.Makespan) > 1e-6*legacy.Makespan {
		t.Fatalf("makespan %v vs legacy %v", under.Makespan, legacy.Makespan)
	}
}

// TestGWFReadWriteReadLossless drives the full GWF loop: an exported
// trace re-imports to identical records and re-exports byte-for-byte.
func TestGWFReadWriteReadLossless(t *testing.T) {
	tr, err := SynthesizeDataset("2007-51")
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := WriteTraceGWF(&first, tr); err != nil {
		t.Fatal(err)
	}
	in, err := ReadTraceGWF(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := WriteTraceGWF(&second, in); err != nil {
		t.Fatal(err)
	}
	again, err := ReadTraceGWF(bytes.NewReader(second.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("GWF serialization not stable across a read→write cycle")
	}
	if again.Name != in.Name || again.Timeout != in.Timeout || again.Len() != in.Len() {
		t.Fatalf("headers drifted: %q/%v/%d vs %q/%v/%d",
			again.Name, again.Timeout, again.Len(), in.Name, in.Timeout, in.Len())
	}
	for i := range in.Records {
		a, b := in.Records[i], again.Records[i]
		if a != b {
			t.Fatalf("record %d drifted: %+v vs %+v", i, a, b)
		}
	}
}
