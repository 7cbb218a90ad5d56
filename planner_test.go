package gridstrat

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"gridstrat/internal/core"
	"gridstrat/internal/optimize"
	"gridstrat/internal/workload"
)

// legacyRecommend is the seed's pre-Planner advisor algorithm, kept
// verbatim as a reference: the Planner must reproduce it exactly. It
// optimizes one ratio per call, so it also proves that the Planner's
// shared ratio search equals per-ratio searches.
func legacyRecommend(m Model, maxParallel float64) (Recommendation, error) {
	return legacyRecommendWith(m, maxParallel, func(m Model, ratio float64) (DelayedParams, Evaluation, error) {
		return OptimizeDelayedRatio(context.Background(), m, ratio, 1)
	})
}

// legacyRecommendWith is legacyRecommend with the per-ratio delayed
// optimizer as a parameter.
func legacyRecommendWith(m Model, maxParallel float64, optimizeRatio func(Model, float64) (DelayedParams, Evaluation, error)) (Recommendation, error) {
	cc, err := core.NewCostContext(context.Background(), m, 1)
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
		tInf, ev, delta, err := cc.DeltaMultiple(context.Background(), b, 1)
		if err != nil {
			return Recommendation{}, err
		}
		if ev.EJ < best.Eval.EJ {
			best = Recommendation{Strategy: StrategyMultiple, TInf: tInf, B: b, Eval: ev, Delta: delta}
		}
	}
	for _, ratio := range []float64{1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0} {
		p, ev, err := optimizeRatio(m, ratio)
		if err != nil {
			return Recommendation{}, err
		}
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
		oracleRatio := func(m Model, ratio float64) (DelayedParams, Evaluation, error) {
			if r, ok := oracle[ratio]; ok {
				return r.Delayed, r.Eval, nil
			}
			p, ev := oracleDelayedRatio(m, ratio)
			oracle[ratio] = Recommendation{Delayed: p, Eval: ev}
			return p, ev, nil
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

// countingModel counts how often each of the four integrals hits the
// base model so the Planner's memoization is observable. F̃ is not
// memoized, so it is not counted.
type countingModel struct {
	Model
	calls int64
	prod  int64 // IntProdOneMinusF calls alone
	uprod int64 // IntUProdOneMinusF calls alone
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
	atomic.AddInt64(&c.prod, 1)
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
// Planner to be (nearly) free in terms of base-model integral work.
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

// TestPlannersShareOneMemo: a Planner built over another Planner's
// Model shares its candidate table instead of wrapping the model
// again, so once a max_parallel level has been planned, a further
// Planner's Recommend at that level, whatever its other options, makes
// no base integral call at all. The daemon's registry builds one
// Planner per option-carrying request over a model's shared table and
// relies on this.
func TestPlannersShareOneMemo(t *testing.T) {
	cm := &countingModel{Model: refModel(t)}
	p, err := NewPlanner(cm, WithMaxParallel(1.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Recommend(); err != nil {
		t.Fatal(err)
	}
	levels := []float64{1, 1.5, 2, 2.5, 3, 4, 5}
	for _, mp := range levels {
		q, err := NewPlanner(p.Model(), WithMaxParallel(mp))
		if err != nil {
			t.Fatal(err)
		}
		if q.Model() != p.Model() {
			t.Fatalf("second Planner re-wrapped the shared model: %T", q.Model())
		}
		if _, err := q.Recommend(); err != nil {
			t.Fatal(err)
		}
	}
	before := atomic.LoadInt64(&cm.calls)
	for _, mp := range levels {
		q, err := NewPlanner(p.Model(), WithMaxParallel(mp), WithDeadline(3000), WithBudget(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Recommend(); err != nil {
			t.Fatal(err)
		}
	}
	if extra := atomic.LoadInt64(&cm.calls) - before; extra != 0 {
		t.Fatalf("warm Planners made %d base integral calls, want 0", extra)
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

	// Mid-flight: a cold Recommend cancelled from inside its own run,
	// at half the integral calls an uncancelled run makes, must return
	// context.Canceled and stop early.
	full := &kernelCountingModel{EmpiricalModel: m}
	pf, err := NewPlanner(full)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pf.Recommend(); err != nil {
		t.Fatal(err)
	}
	total := full.calls.Load()
	if total < 100 {
		t.Fatalf("uncancelled Recommend made only %d integral calls", total)
	}
	for _, par := range []int{1, 4} {
		cctx, ccancel := context.WithCancel(context.Background())
		cm := &kernelCountingModel{EmpiricalModel: m, cancelAt: total / 2, cancel: ccancel}
		p2, err := NewPlanner(cm, WithContext(cctx), WithParallelism(par))
		if err != nil {
			ccancel()
			t.Fatal(err)
		}
		_, err = p2.Recommend()
		ccancel()
		if err != context.Canceled {
			t.Fatalf("parallelism %d: Recommend cancelled at call %d: %v, want context.Canceled", par, total/2, err)
		}
		n := cm.calls.Load()
		if n >= total {
			t.Fatalf("parallelism %d: cancelled Recommend made %d integral calls, an uncancelled one %d", par, n, total)
		}
		t.Logf("parallelism %d: cancelled at call %d, stopped after %d of %d", par, total/2, n, total)
	}
}

// kernelCountingModel forwards every integral of the empirical model it
// wraps, its batch, fused and ratio-grid kernels included, so the
// optimizers take the same paths through it, and counts the calls. At
// call number cancelAt it calls cancel.
type kernelCountingModel struct {
	*EmpiricalModel
	calls    atomic.Int64
	cancelAt int64
	cancel   func()
}

func (c *kernelCountingModel) tick() {
	if n := c.calls.Add(1); n == c.cancelAt && c.cancel != nil {
		c.cancel()
	}
}

func (c *kernelCountingModel) IntOneMinusFPow(T float64, b int) float64 {
	c.tick()
	return c.EmpiricalModel.IntOneMinusFPow(T, b)
}

func (c *kernelCountingModel) IntUOneMinusFPow(T float64, b int) float64 {
	c.tick()
	return c.EmpiricalModel.IntUOneMinusFPow(T, b)
}

func (c *kernelCountingModel) IntProdOneMinusF(T, shift float64) float64 {
	c.tick()
	return c.EmpiricalModel.IntProdOneMinusF(T, shift)
}

func (c *kernelCountingModel) IntUProdOneMinusF(T, shift float64) float64 {
	c.tick()
	return c.EmpiricalModel.IntUProdOneMinusF(T, shift)
}

func (c *kernelCountingModel) IntOneMinusFPowBatch(Ts []float64, b int) []float64 {
	c.tick()
	return c.EmpiricalModel.IntOneMinusFPowBatch(Ts, b)
}

func (c *kernelCountingModel) IntUOneMinusFPowBatch(Ts []float64, b int) []float64 {
	c.tick()
	return c.EmpiricalModel.IntUOneMinusFPowBatch(Ts, b)
}

func (c *kernelCountingModel) IntProdBothBatch(Ts []float64, shift float64) ([]float64, []float64) {
	c.tick()
	return c.EmpiricalModel.IntProdBothBatch(Ts, shift)
}

func (c *kernelCountingModel) IntProdBothOneMinusF(T, shift float64) (float64, float64) {
	c.tick()
	return c.EmpiricalModel.IntProdBothOneMinusF(T, shift)
}

func (c *kernelCountingModel) IntProdRatioGrid(ratio, lo, h float64, out []float64) {
	c.tick()
	c.EmpiricalModel.IntProdRatioGrid(ratio, lo, h, out)
}

// scalarOnlyModel hides the optional batch and fused cross-term
// extensions of the model it embeds, so the optimizers scan it through
// the pointwise adapter.
type scalarOnlyModel struct{ Model }

// TestPlannerContextCancellationScalarOnly is the mid-flight
// cancellation check for a model without batch kernels: its scans run
// as pointwise chunked sweeps, and a cold Recommend cancelled from
// inside its own run, at half the integral calls an uncancelled run
// makes, must return context.Canceled within a quarter of those calls
// after the cancel, at sequential and parallel execution. The scans
// check ctx at least once per grid chunk; the quarter leaves room for
// the chunks in flight at parallelism 4.
func TestPlannerContextCancellationScalarOnly(t *testing.T) {
	m := refModel(t)
	if _, ok := Model(scalarOnlyModel{m}).(BatchIntegrals); ok {
		t.Fatal("scalarOnlyModel must hide the batch extension")
	}
	full := &kernelCountingModel{EmpiricalModel: m}
	pf, err := NewPlanner(scalarOnlyModel{full}, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pf.Recommend(); err != nil {
		t.Fatal(err)
	}
	total := full.calls.Load()
	if total < 100 {
		t.Fatalf("uncancelled Recommend made only %d integral calls", total)
	}
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cm := &kernelCountingModel{EmpiricalModel: m, cancelAt: total / 2, cancel: cancel}
		p, err := NewPlanner(scalarOnlyModel{cm}, WithParallelism(par), WithContext(ctx))
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		_, err = p.Recommend()
		cancel()
		if err != context.Canceled {
			t.Fatalf("parallelism %d: Recommend cancelled at call %d: %v, want context.Canceled", par, total/2, err)
		}
		n := cm.calls.Load()
		if n-total/2 > total/4 {
			t.Fatalf("parallelism %d: Recommend cancelled at call %d made %d integral calls, an uncancelled one %d", par, total/2, n, total)
		}
		t.Logf("parallelism %d: cancelled at call %d, stopped after %d of %d", par, total/2, n, total)
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
	want, err := compareDeadlineOracle(context.Background(), m, 900, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Single.Probability != want.Single.Probability ||
		rep.Multiple.Probability != want.Multiple.Probability {
		t.Fatalf("planner deadline report differs from legacy: %+v vs %+v", rep, want)
	}
}

// compareDeadlineOracle is the deadline comparison as it ran before
// the Planner read its optima from the candidate table: it optimizes
// single, multiple and delayed on every call and builds the report
// itself.
func compareDeadlineOracle(ctx context.Context, m Model, deadline float64, b int, workers int) (core.DeadlineReport, error) {
	rep := core.DeadlineReport{Deadline: deadline}
	tS, _, err := core.OptimizeSingle(ctx, m, workers)
	if err != nil {
		return core.DeadlineReport{}, err
	}
	cdfS := core.SingleCDF(m, tS)
	rep.Single = core.DeadlineEntry{
		Label:       fmt.Sprintf("single(t∞=%.0fs)", tS),
		Probability: cdfS(deadline),
		Parallel:    1,
		P95:         core.QuantileJ(cdfS, 0.95, tS),
	}
	tM, _, err := core.OptimizeMultiple(ctx, m, b, workers)
	if err != nil {
		return core.DeadlineReport{}, err
	}
	cdfM := core.MultipleCDF(m, b, tM)
	rep.Multiple = core.DeadlineEntry{
		Label:       fmt.Sprintf("multiple(b=%d, t∞=%.0fs)", b, tM),
		Probability: cdfM(deadline),
		Parallel:    float64(b),
		P95:         core.QuantileJ(cdfM, 0.95, tM),
	}
	p, ev, err := core.OptimizeDelayed(ctx, m, workers)
	if err != nil {
		return core.DeadlineReport{}, err
	}
	cdfD := core.DelayedCDF(m, p)
	rep.Delayed = core.DeadlineEntry{
		Label:       fmt.Sprintf("delayed(t0=%.0fs, t∞=%.0fs)", p.T0, p.TInf),
		Probability: cdfD(deadline),
		Parallel:    ev.Parallel,
		P95:         core.QuantileJ(cdfD, 0.95, p.T0),
	}
	return rep, nil
}

// TestCompareDeadlineReadsCandidateTable: the Planner's deadline
// report, built from the candidate table's single, multiple and 2-D
// delayed optima, equals the per-call optimizing oracle on every paper
// dataset, and a second call on the same Planner makes no integral
// call at all.
func TestCompareDeadlineReadsCandidateTable(t *testing.T) {
	specs := PaperDatasets()
	if testing.Short() || raceEnabled {
		specs = specs[:3]
	}
	for _, spec := range specs {
		name := spec.Name
		tr, err := SynthesizeDataset(name)
		if err != nil {
			t.Fatal(err)
		}
		em, err := ModelFromTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		cm := &kernelCountingModel{EmpiricalModel: em}
		p, err := NewPlanner(cm, WithDeadline(900), WithCollectionSize(3), WithParallelism(2))
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.CompareDeadline()
		if err != nil {
			t.Fatal(err)
		}
		want, err := compareDeadlineOracle(context.Background(), em, 900, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: planner %+v, oracle %+v", name, got, want)
		}
		before := cm.calls.Load()
		again, err := p.CompareDeadline()
		if err != nil {
			t.Fatal(err)
		}
		if n := cm.calls.Load() - before; n != 0 || again != got {
			t.Fatalf("%s: second CompareDeadline made %d integral calls (report %+v, first %+v)", name, n, again, got)
		}
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
	ws, err := workload.MultipleStrategy(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := workload.EstimateMakespan(app, ws)
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
