package gridstrat_test

import (
	"fmt"

	"gridstrat"
)

// Example shows the minimal pipeline: trace → model → optimized
// strategies. Printed values are coarse-grained so they stay stable
// across architectures (everything is deterministically seeded).
func Example() {
	tr, err := gridstrat.SynthesizeDataset("2006-IX")
	if err != nil {
		panic(err)
	}
	m, err := gridstrat.ModelFromTrace(tr)
	if err != nil {
		panic(err)
	}

	_, single, err := gridstrat.Single{}.Optimize(m)
	if err != nil {
		panic(err)
	}
	_, multi5, err := gridstrat.Multiple{B: 5}.Optimize(m)
	if err != nil {
		panic(err)
	}
	_, delayed, err := gridstrat.Delayed{}.Optimize(m)
	if err != nil {
		panic(err)
	}

	fmt.Println("multiple(b=5) beats delayed:", multi5.EJ < delayed.EJ)
	fmt.Println("delayed beats single:", delayed.EJ < single.EJ)
	fmt.Println("delayed keeps fewer than 2 copies:", delayed.Parallel < 2)
	// Output:
	// multiple(b=5) beats delayed: true
	// delayed beats single: true
	// delayed keeps fewer than 2 copies: true
}

// ExampleNewPlanner shows the facade: one Planner per latency model,
// constraints as functional options, every high-level question a
// method.
func ExampleNewPlanner() {
	tr, _ := gridstrat.SynthesizeDataset("2006-IX")
	m, _ := gridstrat.ModelFromTrace(tr)
	planner, err := gridstrat.NewPlanner(m,
		gridstrat.WithMaxParallel(2),
		gridstrat.WithDeadline(600),
	)
	if err != nil {
		panic(err)
	}

	rec, _ := planner.Recommend()
	fmt.Println("fastest within budget:", rec.Strategy)

	ranked, _ := planner.Rank()
	fmt.Println("families ranked:", len(ranked))

	rep, _ := planner.CompareDeadline()
	fmt.Println("replication raises P(J<=600s):",
		rep.Multiple.Probability > rep.Single.Probability)
	// Output:
	// fastest within budget: multiple
	// families ranked: 3
	// replication raises P(J<=600s): true
}

// ExampleSingle_Optimize tunes one strategy family directly through
// the Strategy interface.
func ExampleSingle_Optimize() {
	tr, _ := gridstrat.SynthesizeDataset("2006-IX")
	m, _ := gridstrat.ModelFromTrace(tr)

	tuned, ev, err := gridstrat.Single{}.Optimize(m)
	if err != nil {
		panic(err)
	}
	re, _ := tuned.Evaluate(m)
	fmt.Println("tuned timeout positive:", tuned.Params().TInf > 0)
	fmt.Println("round trip agrees:", re.EJ == ev.EJ)
	// Output:
	// tuned timeout positive: true
	// round trip agrees: true
}

// ExamplePlanner_RecommendCheapest reproduces the paper's §7 headline
// on the reference dataset: a delayed configuration that both finishes
// sooner and loads the grid less than single resubmission (Δcost < 1).
func ExamplePlanner_RecommendCheapest() {
	tr, _ := gridstrat.SynthesizeDataset("2006-IX")
	m, _ := gridstrat.ModelFromTrace(tr)
	p, _ := gridstrat.NewPlanner(m)
	r, err := p.RecommendCheapest()
	if err != nil {
		panic(err)
	}
	fmt.Println("strategy:", r.Strategy)
	fmt.Println("cheaper than doing nothing clever:", r.Delta < 1)
	// Output:
	// strategy: delayed
	// cheaper than doing nothing clever: true
}

// ExamplePlanner_CompareDeadline shows the tail view of the
// strategies: the probability that a task starts before a deadline.
func ExamplePlanner_CompareDeadline() {
	tr, _ := gridstrat.SynthesizeDataset("2006-IX")
	m, _ := gridstrat.ModelFromTrace(tr)
	p, _ := gridstrat.NewPlanner(m, gridstrat.WithDeadline(600), gridstrat.WithCollectionSize(4))
	rep, err := p.CompareDeadline()
	if err != nil {
		panic(err)
	}
	fmt.Println("replication raises P(J<=600s):",
		rep.Multiple.Probability > rep.Single.Probability)
	fmt.Println("and compresses the 95th percentile:",
		rep.Multiple.P95 < rep.Single.P95)
	// Output:
	// replication raises P(J<=600s): true
	// and compresses the 95th percentile: true
}

// ExamplePlanner_CompareMakespan sizes a latency-dominated
// bag-of-tasks application: with 5-fold submission the slowest-task
// tail shrinks so much that the whole application finishes in a
// fraction of the time.
func ExamplePlanner_CompareMakespan() {
	tr, _ := gridstrat.SynthesizeDataset("2006-IX")
	m, _ := gridstrat.ModelFromTrace(tr)
	app := gridstrat.Application{Tasks: 500, WaveWidth: 100, Runtime: 120}

	p, _ := gridstrat.NewPlanner(m)
	ests, err := p.CompareMakespan(app, gridstrat.Single{}, gridstrat.Multiple{B: 5})
	if err != nil {
		panic(err)
	}
	singleEst, multiEst := ests[0], ests[1]

	fmt.Println("waves:", app.Waves())
	fmt.Println("b=5 at least 2x faster:", multiEst.Makespan*2 < singleEst.Makespan)
	// Output:
	// waves: 5
	// b=5 at least 2x faster: true
}
