package gridstrat

import (
	"fmt"
	"math/rand"

	"gridstrat/internal/core"
)

// Rand is the random source consumed by the Monte Carlo simulators.
type Rand = *rand.Rand

// NewSeededRand returns a deterministic random source derived from the
// full 64-bit seed via SplitMix64 (math/rand's own NewSource truncates
// seeds to 31 bits, which can hand two nearby seeds identical
// streams). Use it with WithRand — or the WithSeed shorthand — when a
// Monte Carlo result must be reproducible from a serialized seed.
func NewSeededRand(seed uint64) Rand { return core.NewSeededRand(seed) }

// StrategyName identifies a recommended strategy.
type StrategyName string

// Recommended strategy identifiers.
const (
	StrategySingle   StrategyName = "single"
	StrategyMultiple StrategyName = "multiple"
	StrategyDelayed  StrategyName = "delayed"
)

// Recommendation is the outcome of the strategy advisor: the strategy
// minimizing expected latency under a parallel-copy budget, with its
// tuned parameters, evaluation, and infrastructure cost.
type Recommendation struct {
	Strategy StrategyName
	TInf     float64       // timeout (single and multiple)
	B        int           // collection size (multiple)
	Delayed  DelayedParams // parameters (delayed)
	Eval     Evaluation
	Delta    float64 // Δcost relative to the single optimum
}

// String renders a one-line summary.
func (r Recommendation) String() string {
	switch r.Strategy {
	case StrategyMultiple:
		return fmt.Sprintf("multiple(b=%d, t∞=%.0fs): EJ=%.0fs σ=%.0fs N‖=%.2f Δcost=%.2f",
			r.B, r.TInf, r.Eval.EJ, r.Eval.Sigma, r.Eval.Parallel, r.Delta)
	case StrategyDelayed:
		return fmt.Sprintf("delayed(t0=%.0fs, t∞=%.0fs): EJ=%.0fs σ=%.0fs N‖=%.2f Δcost=%.2f",
			r.Delayed.T0, r.Delayed.TInf, r.Eval.EJ, r.Eval.Sigma, r.Eval.Parallel, r.Delta)
	default:
		return fmt.Sprintf("single(t∞=%.0fs): EJ=%.0fs σ=%.0fs N‖=1 Δcost=%.2f",
			r.TInf, r.Eval.EJ, r.Eval.Sigma, r.Delta)
	}
}

// ClassRecommendation is the outcome of SLO-class-aware planning: the
// configuration chosen for one class, the modeled probability that a
// task meets the class deadline under it, and whether that probability
// reaches the class target. When Feasible is false the planner is
// explicitly reporting that no configuration within the class's
// parallel-copy and Δcost budgets meets the SLO — the recommendation
// is then the closest miss (highest modeled hit probability), so the
// caller can degrade deliberately instead of discovering the miss in
// production.
type ClassRecommendation struct {
	Policy   ClassPolicy
	Rec      Recommendation
	PHit     float64 // modeled P(J <= Policy.Deadline) under Rec
	Feasible bool    // PHit >= Policy.Target
}

// String renders a one-line summary.
func (c ClassRecommendation) String() string {
	verdict := "meets SLO"
	if !c.Feasible {
		verdict = "INFEASIBLE"
	}
	return fmt.Sprintf("%s: %v — P(J<=%.0fs)=%.3f (target %.2f, %s)",
		c.Policy.Class, c.Rec, c.Policy.Deadline, c.PHit, c.Policy.Target, verdict)
}
