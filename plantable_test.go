package gridstrat

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
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
// can change an answer.
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
	}
}

// TestCancelledFillIsNotKept: a fill aborted by the filling Planner's
// context is not cached; the next Planner on the same shared model
// fills the table itself and gets the full answer.
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

// TestPrepareFillsTheWholeTable: after Prepare, Recommend at every
// max_parallel level the table holds and RecommendForClass for every
// class policy make no base integral call, and answer exactly as
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
}
