package gridstrat

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"gridstrat/internal/core"
)

// tableClassPolicies are the class policies the class-planning suite
// (planner_class_test.go) plans.
func tableClassPolicies() []ClassPolicy {
	return append([]ClassPolicy{
		{Class: ClassStandard, Deadline: 50000, Target: 0.85, MaxParallel: 2, Budget: 3},
		{Class: ClassCritical, Deadline: 50, Target: 0.9, MaxParallel: 5},
		{Class: ClassCritical, Deadline: 2000, Target: 0.9, MaxParallel: 5},
		{Class: ClassSheddable, Deadline: 2000, Target: 0.9, MaxParallel: 1},
	}, DefaultClassPolicies(4000)...)
}

// TestSharedTableMatchesFreshPlannersOnPaperDatasets: every answer
// read from one model's shared candidate table, queried in a shuffled
// order through per-query Planners, equals field for field the answer
// of a fresh Planner over a freshly built model — so neither the
// options of earlier queries nor the order in which the table filled
// (the E[N‖] entry included, filled by whichever query first reads a
// delayed candidate's N‖) can change an answer. The shared E[N‖]
// entry ends filled, equal bit for bit to core.DelayedParallels at the
// ratio optima.
func TestSharedTableMatchesFreshPlannersOnPaperDatasets(t *testing.T) {
	specs := PaperDatasets()
	if testing.Short() || raceEnabled {
		specs = specs[:3]
	}
	type query struct {
		maxParallel, budget float64
		class               *ClassPolicy
	}
	var queries []query
	for _, mp := range []float64{1, 1.5, 2, 2.5, 3, 4, 5} {
		for _, budget := range []float64{0, 1, 1.5, 2, 4} {
			queries = append(queries, query{maxParallel: mp, budget: budget})
		}
	}
	for _, pol := range tableClassPolicies() {
		pol := pol
		queries = append(queries, query{class: &pol})
	}
	for i, spec := range specs {
		tr, err := SynthesizeDataset(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		fresh := func(opts ...PlannerOption) *Planner {
			m, err := ModelFromTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPlanner(m, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		shared := fresh().Model()
		order := rand.New(rand.NewSource(int64(i))).Perm(len(queries))
		for _, qi := range order {
			q := queries[qi]
			if q.class != nil {
				p, err := NewPlanner(shared)
				if err != nil {
					t.Fatal(err)
				}
				got, gotErr := p.RecommendForClass(*q.class)
				want, wantErr := fresh().RecommendForClass(*q.class)
				if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s class %+v: shared table %+v (%v), fresh %+v (%v)",
						spec.Name, *q.class, got, gotErr, want, wantErr)
				}
				continue
			}
			opts := []PlannerOption{WithMaxParallel(q.maxParallel), WithBudget(q.budget)}
			p, err := NewPlanner(shared, opts...)
			if err != nil {
				t.Fatal(err)
			}
			got, gotErr := p.Recommend()
			want, wantErr := fresh(opts...).Recommend()
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s max_parallel %v budget %v: shared table %+v (%v), fresh %+v (%v)",
					spec.Name, q.maxParallel, q.budget, got, gotErr, want, wantErr)
			}
		}
		sm := shared.(*memoModel)
		if !kept(&sm.parallels) {
			t.Fatalf("%s: the shared E[N‖] entry is unfilled after every query", spec.Name)
		}
		opt, _ := sm.ratios.get(context.Background(), nil)
		got, _ := sm.parallels.get(context.Background(), nil)
		want, err := core.DelayedParallels(context.Background(), sm.Model, opt.dps, 1)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s ratio %v: shared E[N‖] %v, recomputed %v", spec.Name, delayedRatioGrid[j], got[j], want[j])
			}
		}
	}
}

// TestCancelledFillIsNotKept: a fill aborted by the filling Planner's
// context is not cached; the next Planner on the same shared model
// fills the table itself and gets the full answer. That holds for the
// E[N‖] entry alone too: a RecommendForClass whose context is done by
// the time it reads the (already kept) ratio optima's N‖ keeps no
// E[N‖], and the next query fills it.
func TestCancelledFillIsNotKept(t *testing.T) {
	m := refModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := NewPlanner(m, WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Recommend(); !errors.Is(err, context.Canceled) {
		t.Fatalf("first fill under a cancelled context: err %v, want context.Canceled", err)
	}
	q, err := NewPlanner(p.Model(), WithMaxParallel(3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Recommend()
	if err != nil {
		t.Fatalf("second Planner on the same model: %v", err)
	}
	ref, err := NewPlanner(refModel(t), WithMaxParallel(3))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("after a cancelled fill: %+v, want %+v", got, want)
	}

	// The option-free Recommend keeps every entry it reads, and not
	// the E[N‖] one; a class query at max_parallel 2 under a cancelled
	// context then reaches only that entry's fill.
	warm, err := NewPlanner(refModel(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Recommend(); err != nil {
		t.Fatal(err)
	}
	pol := ClassPolicy{Class: ClassStandard, Deadline: 3000, Target: 0.9, MaxParallel: 2}
	c, err := NewPlanner(warm.Model(), WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecommendForClass(pol); !errors.Is(err, context.Canceled) {
		t.Fatalf("E[N‖] fill under a cancelled context: err %v, want context.Canceled", err)
	}
	if !kept(&warm.memo.ratios) || kept(&warm.memo.parallels) {
		t.Fatalf("after a cancelled E[N‖] fill: ratio optima kept %v, E[N‖] kept %v; want true, false",
			kept(&warm.memo.ratios), kept(&warm.memo.parallels))
	}
	gotClass, err := warm.RecommendForClass(pol)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewPlanner(refModel(t))
	if err != nil {
		t.Fatal(err)
	}
	wantClass, err := fresh.RecommendForClass(pol)
	if err != nil {
		t.Fatal(err)
	}
	if gotClass != wantClass || !kept(&warm.memo.parallels) {
		t.Fatalf("after a cancelled E[N‖] fill: %+v (kept %v), want %+v", gotClass, kept(&warm.memo.parallels), wantClass)
	}
}

// TestConcurrentFillsAreSingleFlighted: eight Planners with mixed
// options racing on one cold shared model walk the delayed cross term
// exactly as often as one cold Recommend — the ratio optima are
// computed once, not once per racer.
func TestConcurrentFillsAreSingleFlighted(t *testing.T) {
	one := &countingModel{Model: refModel(t)}
	p, err := NewPlanner(one, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Recommend(); err != nil {
		t.Fatal(err)
	}
	want := atomic.LoadInt64(&one.prod)

	cm := &countingModel{Model: refModel(t)}
	shared, err := NewPlanner(cm, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		opts := []PlannerOption{
			WithParallelism(2),
			WithMaxParallel(float64(1 + i%5)),
			WithDeadline(float64(600 + 700*i)),
		}
		if i%3 == 0 {
			opts = append(opts, WithBudget(1.5))
		}
		wg.Add(1)
		go func(i int, opts []PlannerOption) {
			defer wg.Done()
			q, err := NewPlanner(shared.Model(), opts...)
			if err == nil {
				_, err = q.Recommend()
			}
			errs[i] = err
		}(i, opts)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("racer %d: %v", i, err)
		}
	}
	if got := atomic.LoadInt64(&cm.prod); got != want {
		t.Fatalf("8 racing Planners made %d base IntProdOneMinusF calls, one cold Recommend makes %d", got, want)
	}
}

// TestPrepareFillsTheWholeTable: after Prepare, whose table holds the
// ratio optima's E[N‖] too, Recommend at every max_parallel level the
// table holds and RecommendForClass for every class policy make no
// base integral call and evaluate no E[N‖], and answer exactly as
// Planners over a table filled on demand.
func TestPrepareFillsTheWholeTable(t *testing.T) {
	cm := &countingModel{Model: refModel(t)}
	p, err := NewPlanner(cm)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Prepare(); err != nil {
		t.Fatal(err)
	}
	if !kept(&p.memo.parallels) {
		t.Fatal("Prepare left the E[N‖] entry unfilled")
	}
	prepared := p.memo.parallels.fill
	onDemand, err := NewPlanner(refModel(t))
	if err != nil {
		t.Fatal(err)
	}
	before := atomic.LoadInt64(&cm.calls)
	for _, mp := range []float64{1, 1.5, 2, 2.5, 3, 4, 5, 6, 7, 8} {
		q, err := NewPlanner(p.Model(), WithMaxParallel(mp), WithDeadline(3000))
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := q.Recommend()
		r, err := NewPlanner(onDemand.Model(), WithMaxParallel(mp), WithDeadline(3000))
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := r.Recommend()
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("max_parallel %v: prepared %+v (%v), on demand %+v (%v)", mp, got, gotErr, want, wantErr)
		}
	}
	for _, pol := range tableClassPolicies() {
		got, gotErr := p.RecommendForClass(pol)
		want, wantErr := onDemand.RecommendForClass(pol)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("class %+v: prepared %+v (%v), on demand %+v (%v)", pol, got, gotErr, want, wantErr)
		}
	}
	if extra := atomic.LoadInt64(&cm.calls) - before; extra != 0 {
		t.Fatalf("queries after Prepare made %d base integral calls, want 0", extra)
	}
	if p.memo.parallels.fill != prepared {
		t.Fatal("queries after Prepare refilled the E[N‖] entry")
	}
}

// kept reports whether a candidate-table entry holds a kept fill.
func kept[T any](f *flight[T]) bool {
	f.mu.Lock()
	c := f.fill
	f.mu.Unlock()
	if c == nil {
		return false
	}
	select {
	case <-c.done:
		return !c.dropped
	default:
		return false
	}
}

// eagerCandidates is the candidate list Recommend and RecommendForClass
// filtered before E[N‖] was made lazy, built from core directly: the
// single baseline, the multiple optimum at every b in [2, maxB] and
// every delayed ratio optimum with its full DelayedEvaluate.
func eagerCandidates(t *testing.T, m Model, maxB int) (base Recommendation, multiple, delayed []Recommendation) {
	t.Helper()
	ctx := context.Background()
	cc, err := core.NewCostContext(ctx, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	base = Recommendation{Strategy: StrategySingle, TInf: cc.RefTimeout, Delta: 1,
		Eval: Evaluation{EJ: cc.RefEJ, Sigma: core.SigmaSingle(m, cc.RefTimeout), Parallel: 1}}
	for b := 2; b <= maxB; b++ {
		tInf, ev, err := core.OptimizeMultiple(ctx, m, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		multiple = append(multiple, Recommendation{Strategy: StrategyMultiple, TInf: tInf, B: b, Eval: ev, Delta: cc.Delta(ev.EJ, float64(b))})
	}
	dps, _, err := core.OptimizeDelayedRatios(ctx, m, delayedRatioGrid, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, dp := range dps {
		ev, err := core.DelayedEvaluate(m, dp)
		if err != nil {
			ev = Evaluation{EJ: math.Inf(1), Sigma: math.Inf(1), Parallel: 1}
		}
		delayed = append(delayed, Recommendation{Strategy: StrategyDelayed, Delayed: dp, Eval: ev, Delta: cc.Delta(ev.EJ, ev.Parallel)})
	}
	return base, multiple, delayed
}

// eagerRecommend is Recommend's filter loop as it ran over eagerly
// evaluated candidates: Parallel is read before EJ is compared.
func eagerRecommend(base Recommendation, multiple, delayed []Recommendation, maxParallel, budget float64) (Recommendation, error) {
	inBudget := func(delta float64) bool { return budget <= 0 || delta <= budget }
	best := Recommendation{Eval: Evaluation{EJ: math.Inf(1)}}
	if inBudget(1) {
		best = base
	}
	if b := affordableB(maxParallel); b >= 2 {
		mr := multiple[b-2]
		if inBudget(mr.Delta) && mr.Eval.EJ < best.Eval.EJ {
			best = mr
		}
	}
	for _, d := range delayed {
		if math.IsInf(d.Eval.EJ, 1) || d.Eval.Parallel > maxParallel {
			continue
		}
		if inBudget(d.Delta) && d.Eval.EJ < best.Eval.EJ {
			best = d
		}
	}
	if math.IsInf(best.Eval.EJ, 1) {
		return Recommendation{}, fmt.Errorf("gridstrat: no strategy fits Δcost budget %v", budget)
	}
	return best, nil
}

// eagerRecommendForClass is RecommendForClass's selection over eagerly
// evaluated candidates.
func eagerRecommendForClass(m Model, base Recommendation, multiple, delayed []Recommendation, pol ClassPolicy) (ClassRecommendation, error) {
	inBudget := func(delta float64) bool { return pol.Budget <= 0 || delta <= pol.Budget }
	candidates := []Recommendation{base}
	for _, mr := range multiple {
		if mr.B <= min(affordableB(pol.MaxParallel), classMaxB) {
			candidates = append(candidates, mr)
		}
	}
	for _, d := range delayed {
		if !math.IsInf(d.Eval.EJ, 1) && d.Eval.Parallel <= pol.MaxParallel {
			candidates = append(candidates, d)
		}
	}
	out := ClassRecommendation{Policy: pol, PHit: math.Inf(-1)}
	bestDelta := math.Inf(1)
	for _, cand := range candidates {
		if cand.Eval.Parallel > pol.MaxParallel || !inBudget(cand.Delta) {
			continue
		}
		cdf := cand.AsStrategy().CDF(m)
		if cdf == nil {
			continue
		}
		pHit := cdf(pol.Deadline)
		switch {
		case pHit >= pol.Target && (!out.Feasible || cand.Delta < bestDelta ||
			(cand.Delta == bestDelta && cand.Eval.EJ < out.Rec.Eval.EJ)):
			out.Feasible = true
			out.Rec, out.PHit, bestDelta = cand, pHit, cand.Delta
		case !out.Feasible && (pHit > out.PHit || (pHit == out.PHit && cand.Delta < bestDelta)):
			out.Rec, out.PHit, bestDelta = cand, pHit, cand.Delta
		}
	}
	if math.IsInf(out.PHit, -1) {
		return ClassRecommendation{}, fmt.Errorf("no configuration fits class %s", pol.Class)
	}
	return out, nil
}

// TestLazyParallelsMatchEagerReference pins the lazy E[N‖] entry on
// all 12 paper datasets: a fresh Planner's option-free Recommend
// leaves the entry unfilled, and Recommend over max_parallel × budget
// and RecommendForClass on three policies equal, field for field, the
// answers of the filter loops over candidates whose E[N‖] was
// evaluated up front.
func TestLazyParallelsMatchEagerReference(t *testing.T) {
	specs := PaperDatasets()
	if testing.Short() || raceEnabled {
		specs = specs[:3]
	}
	policies := []ClassPolicy{
		{Class: ClassStandard, Deadline: 50000, Target: 0.85, MaxParallel: 2, Budget: 3},
		{Class: ClassCritical, Deadline: 2000, Target: 0.9, MaxParallel: 5},
		{Class: ClassSheddable, Deadline: 2000, Target: 0.9, MaxParallel: 1.5},
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
		cold, err := NewPlanner(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cold.Recommend(); err != nil {
			t.Fatal(err)
		}
		if !kept(&cold.memo.ratios) || kept(&cold.memo.parallels) {
			t.Fatalf("%s: after an option-free Recommend the ratio optima are kept %v, their E[N‖] %v; want true, false",
				spec.Name, kept(&cold.memo.ratios), kept(&cold.memo.parallels))
		}
		base, multiple, delayed := eagerCandidates(t, m, classMaxB)
		for _, mp := range []float64{1, 1.5, 1.99, 2, 3, 5} {
			for _, budget := range []float64{0, 1.2, 1.5, 3} {
				p, err := NewPlanner(cold.Model(), WithMaxParallel(mp), WithBudget(budget))
				if err != nil {
					t.Fatal(err)
				}
				got, gotErr := p.Recommend()
				want, wantErr := eagerRecommend(base, multiple, delayed, mp, budget)
				if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s max_parallel %v budget %v: lazy %+v (%v), eager %+v (%v)",
						spec.Name, mp, budget, got, gotErr, want, wantErr)
				}
			}
		}
		for _, pol := range policies {
			fresh, err := NewPlanner(m)
			if err != nil {
				t.Fatal(err)
			}
			got, gotErr := fresh.RecommendForClass(pol)
			want, wantErr := eagerRecommendForClass(m, base, multiple, delayed, pol)
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s class %+v: lazy %+v (%v), eager %+v (%v)", spec.Name, pol, got, gotErr, want, wantErr)
			}
			if !kept(&fresh.memo.parallels) {
				t.Fatalf("%s class %+v: RecommendForClass left E[N‖] unfilled", spec.Name, pol)
			}
		}
	}
}
