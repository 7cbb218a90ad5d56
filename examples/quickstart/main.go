// Quickstart: build a latency model from a probe trace and compare the
// three submission strategies of the paper through the Planner facade.
package main

import (
	"fmt"
	"log"

	"gridstrat"
)

func main() {
	// 1. Get a probe trace. Here: the synthetic reproduction of the
	// paper's 2006-IX EGEE campaign; in production this would be your
	// own probe measurements loaded with gridstrat.ReadTraceCSV.
	tr, err := gridstrat.SynthesizeDataset("2006-IX")
	if err != nil {
		log.Fatal(err)
	}
	st := tr.ComputeStats()
	fmt.Printf("trace %s: %d probes, mean latency %.0fs (σ=%.0fs), %.1f%% outliers\n\n",
		st.Name, st.Probes, st.MeanBody, st.StdBody, st.Rho*100)

	// 2. Build the latency model F̃R(t) = (1-ρ)·FR(t) and a Planner
	// over it. The Planner optimizes each candidate configuration once
	// per model, so the ranking, recommendation and cost queries below
	// share their work.
	m, err := gridstrat.ModelFromTrace(tr)
	if err != nil {
		log.Fatal(err)
	}
	planner, err := gridstrat.NewPlanner(m, gridstrat.WithMaxParallel(1.5))
	if err != nil {
		log.Fatal(err)
	}

	// 3. Optimize each strategy family and rank by expected latency.
	ranked, err := planner.Rank(
		gridstrat.Single{},
		gridstrat.Multiple{B: 2},
		gridstrat.Multiple{B: 5},
		gridstrat.Delayed{},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s %10s %10s %8s %8s\n", "strategy", "EJ", "σJ", "N‖", "Δcost")
	for _, r := range ranked {
		fmt.Printf("%-28v %9.0fs %9.0fs %8.2f %8.2f\n",
			r.Strategy, r.Eval.EJ, r.Eval.Sigma, r.Eval.Parallel, r.Delta)
	}

	// 4. Ask the advisor: fastest under a 1.5-copy budget, and
	// cheapest for the infrastructure.
	fast, err := planner.Recommend()
	if err != nil {
		log.Fatal(err)
	}
	cheap, err := planner.RecommendCheapest()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfastest under N‖ ≤ 1.5: ", fast)
	fmt.Println("cheapest for the grid:  ", cheap)

	// 5. Cross-check the winner with a Monte Carlo replay.
	sim, err := planner.Simulate(fast.AsStrategy(), 20000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMonte Carlo check: EJ=%.0fs ± %.1fs (model said %.0fs)\n",
		sim.EJ, sim.StdErr, fast.Eval.EJ)
}
