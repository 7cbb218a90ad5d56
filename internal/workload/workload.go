// Package workload models grid applications on top of the submission
// strategies: bags of independent tasks dispatched in waves whose
// wall-clock time is latency-dominated. The paper's conclusion points
// at exactly this extension — "the impact of each strategy on
// grid-applications makespan".
//
// Per-wave completion is an order statistic: a wave of n tasks ends
// when its slowest task has started and run, so E[wave] =
// E[max(J₁…J_n)] + runtime with the J_k i.i.d. under the chosen
// strategy. The strategy CDFs come in closed form from the core
// package, making the makespan model analytic end to end.
package workload

import (
	"context"
	"fmt"
	"math"

	"gridstrat/internal/core"
)

// Strategy wraps one submission strategy's total-latency law.
type Strategy struct {
	Name string
	CDF  func(t float64) float64
	EJ   float64 // per-task expectation
	Load float64 // parallel copies per task (b, N‖, or 1)
	Hint float64 // integration scale hint (≈ optimal timeout)
}

// SingleStrategy builds the optimized single-resubmission law.
func SingleStrategy(m core.Model) (Strategy, error) {
	tInf, ev, err := core.OptimizeSingle(context.Background(), m, 1)
	if err != nil {
		return Strategy{}, err
	}
	return Strategy{
		Name: "single",
		CDF:  core.SingleCDF(m, tInf),
		EJ:   ev.EJ,
		Load: 1,
		Hint: tInf,
	}, nil
}

// MultipleStrategy builds the optimized b-fold submission law; an
// invalid b is an error.
func MultipleStrategy(m core.Model, b int) (Strategy, error) {
	tInf, ev, err := core.OptimizeMultiple(context.Background(), m, b, 1)
	if err != nil {
		return Strategy{}, err
	}
	return Strategy{
		Name: fmt.Sprintf("multiple(b=%d)", b),
		CDF:  core.MultipleCDF(m, b, tInf),
		EJ:   ev.EJ,
		Load: float64(b),
		Hint: tInf,
	}, nil
}

// DelayedStrategy builds the EJ-optimal delayed-resubmission law.
func DelayedStrategy(m core.Model) (Strategy, error) {
	p, ev, err := core.OptimizeDelayed(context.Background(), m, 1)
	if err != nil {
		return Strategy{}, err
	}
	return Strategy{
		Name: fmt.Sprintf("delayed(t0=%.0f,t∞=%.0f)", p.T0, p.TInf),
		CDF:  core.DelayedCDF(m, p),
		EJ:   ev.EJ,
		Load: ev.Parallel,
		Hint: p.T0,
	}, nil
}

// Application is a bag of independent tasks executed in fixed-width
// waves.
type Application struct {
	Tasks     int     // total independent tasks
	WaveWidth int     // tasks dispatched concurrently
	Runtime   float64 // execution time per task (s)
}

// Validate checks the application shape.
func (a Application) Validate() error {
	if a.Tasks <= 0 || a.WaveWidth <= 0 {
		return fmt.Errorf("workload: tasks and wave width must be positive, got %+v", a)
	}
	if a.Runtime < 0 || math.IsNaN(a.Runtime) {
		return fmt.Errorf("workload: invalid runtime %v", a.Runtime)
	}
	return nil
}

// Waves returns the number of dispatch waves.
func (a Application) Waves() int {
	return (a.Tasks + a.WaveWidth - 1) / a.WaveWidth
}

// MakespanEstimate is the analytic makespan of an application under a
// strategy.
type MakespanEstimate struct {
	Strategy     string
	Makespan     float64 // expected wall-clock (s)
	PerWave      float64 // expected duration of a full wave
	GridLoad     float64 // peak concurrent copies (wave width × per-task load)
	TotalTaskSec float64 // lower bound on consumed task-seconds
}

// EstimateMakespan computes the expected makespan: waves are
// sequential, each ending at its slowest task.
//
// The last wave may be narrower; it is modeled with its actual width.
func EstimateMakespan(a Application, s Strategy) (MakespanEstimate, error) {
	if err := a.Validate(); err != nil {
		return MakespanEstimate{}, err
	}
	if s.CDF == nil {
		return MakespanEstimate{}, fmt.Errorf("workload: strategy %q has no CDF", s.Name)
	}
	fullWaves := a.Tasks / a.WaveWidth
	rem := a.Tasks % a.WaveWidth

	perWave := core.ExpectedMax(s.CDF, a.WaveWidth, s.Hint) + a.Runtime
	total := float64(fullWaves) * perWave
	if rem > 0 {
		total += core.ExpectedMax(s.CDF, rem, s.Hint) + a.Runtime
	}
	return MakespanEstimate{
		Strategy:     s.Name,
		Makespan:     total,
		PerWave:      perWave,
		GridLoad:     float64(a.WaveWidth) * s.Load,
		TotalTaskSec: float64(a.Tasks) * (s.EJ*s.Load + a.Runtime),
	}, nil
}

// Compare evaluates several strategies on the same application,
// returning estimates in input order.
func Compare(a Application, strategies ...Strategy) ([]MakespanEstimate, error) {
	out := make([]MakespanEstimate, 0, len(strategies))
	for _, s := range strategies {
		est, err := EstimateMakespan(a, s)
		if err != nil {
			return nil, err
		}
		out = append(out, est)
	}
	return out, nil
}

// SmallestMeetingDeadline returns the smallest collection size b whose
// analytic makespan meets the deadline, or 0 if none of 1..maxB does.
func SmallestMeetingDeadline(m core.Model, a Application, deadline float64, maxB int) (int, MakespanEstimate, error) {
	if err := a.Validate(); err != nil {
		return 0, MakespanEstimate{}, err
	}
	if deadline <= 0 || maxB < 1 {
		return 0, MakespanEstimate{}, fmt.Errorf("workload: invalid deadline %v or maxB %d", deadline, maxB)
	}
	for b := 1; b <= maxB; b++ {
		s, err := MultipleStrategy(m, b)
		if err != nil {
			return 0, MakespanEstimate{}, err
		}
		est, err := EstimateMakespan(a, s)
		if err != nil {
			return 0, MakespanEstimate{}, err
		}
		if est.Makespan <= deadline {
			return b, est, nil
		}
	}
	return 0, MakespanEstimate{}, nil
}
