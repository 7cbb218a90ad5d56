package gridstrat

import (
	"context"
	"errors"
	"fmt"
	"math"

	"gridstrat/internal/core"
)

// Strategy is a job-submission strategy of the paper: a named,
// parameterized policy whose total-latency law is a functional of the
// latency model F̃R. The three concrete implementations are Single,
// Multiple and Delayed. A Strategy value is immutable; Optimize
// returns a new value carrying the tuned parameters.
//
// The zero value of each concrete type has no parameters set: Evaluate,
// CDF and Simulate require parameters (set explicitly or obtained from
// Optimize), while Optimize works from the zero value.
type Strategy interface {
	// Name identifies the strategy family.
	Name() StrategyName
	// Params returns the strategy's current parameters; zero fields are
	// unset.
	Params() StrategyParams
	// Evaluate computes EJ, σJ and N‖ at the strategy's parameters.
	Evaluate(m Model) (Evaluation, error)
	// CDF returns the distribution function of the total latency J at
	// the strategy's parameters, or nil when they are invalid.
	CDF(m Model) func(float64) float64
	// Optimize tunes the strategy's free parameters on the model and
	// returns the tuned strategy with its evaluation.
	Optimize(m Model) (Strategy, Evaluation, error)
	// Simulate replays the strategy runs times against latencies
	// sampled from the model — the Monte Carlo cross-check of Evaluate.
	Simulate(m Model, runs int, rng Rand) (SimResult, error)
}

// StrategyParams is the union of the three strategies' knobs; fields
// not used by a strategy are zero.
type StrategyParams struct {
	TInf float64 // timeout t∞ (all strategies)
	B    int     // collection size (Multiple)
	T0   float64 // submission period t0 (Delayed)
}

// ctxStrategy is the cancellable extension of Strategy implemented by
// all concrete types; the Planner threads its context through it.
type ctxStrategy interface {
	Strategy
	optimizeCtx(ctx context.Context, m Model, workers int) (Strategy, Evaluation, error)
	simulateCtx(ctx context.Context, m Model, runs int, rng Rand, workers int) (SimResult, error)
}

var errNilRand = errors.New("gridstrat: nil random source (use rand.New or Planner's WithRand)")

// --- Single resubmission (paper §4) ---

// Single is the single-resubmission strategy: cancel and resubmit at
// the timeout TInf. The zero value is the un-tuned strategy.
type Single struct {
	TInf float64
}

// Name returns StrategySingle.
func (s Single) Name() StrategyName { return StrategySingle }

// Params returns the timeout.
func (s Single) Params() StrategyParams { return StrategyParams{TInf: s.TInf} }

// String renders the strategy with its parameters.
func (s Single) String() string { return fmt.Sprintf("single(t∞=%.0fs)", s.TInf) }

func (s Single) validate() error {
	if !(s.TInf > 0) {
		return fmt.Errorf("gridstrat: single needs a positive timeout, got %v (call Optimize first?)", s.TInf)
	}
	return nil
}

// Evaluate computes Eq. 1–2 at the strategy's timeout.
func (s Single) Evaluate(m Model) (Evaluation, error) {
	if err := s.validate(); err != nil {
		return Evaluation{}, err
	}
	ej := core.EJSingle(m, s.TInf)
	if math.IsInf(ej, 1) {
		return Evaluation{}, fmt.Errorf("gridstrat: no success probability at t∞=%v", s.TInf)
	}
	return Evaluation{EJ: ej, Sigma: core.SigmaSingle(m, s.TInf), Parallel: 1}, nil
}

// CDF returns the total-latency law of the strategy, nil if the
// timeout is unset.
func (s Single) CDF(m Model) func(float64) float64 {
	if s.validate() != nil {
		return nil
	}
	return core.SingleCDF(m, s.TInf)
}

// Optimize minimizes EJ over the timeout (the paper's Eq. 1 optimum).
func (s Single) Optimize(m Model) (Strategy, Evaluation, error) {
	return s.optimizeCtx(context.Background(), m, 1)
}

func (s Single) optimizeCtx(ctx context.Context, m Model, workers int) (Strategy, Evaluation, error) {
	tInf, ev, err := core.OptimizeSingle(ctx, m, workers)
	if err != nil {
		return nil, Evaluation{}, err
	}
	return Single{TInf: tInf}, ev, nil
}

// Simulate replays the strategy against sampled latencies.
func (s Single) Simulate(m Model, runs int, rng Rand) (SimResult, error) {
	return s.simulateCtx(context.Background(), m, runs, rng, 1)
}

func (s Single) simulateCtx(ctx context.Context, m Model, runs int, rng Rand, workers int) (SimResult, error) {
	if rng == nil {
		return SimResult{}, errNilRand
	}
	if err := s.validate(); err != nil {
		return SimResult{}, err
	}
	return core.SimulateSingle(ctx, m, s.TInf, runs, rng, workers)
}

// --- Multiple submission (paper §5) ---

// Multiple is the multiple-submission strategy: B copies are submitted
// together, the rest cancelled when one starts, and the whole
// collection resubmitted at TInf. B must be set; Optimize tunes TInf.
type Multiple struct {
	B    int
	TInf float64
}

// Name returns StrategyMultiple.
func (s Multiple) Name() StrategyName { return StrategyMultiple }

// Params returns the collection size and timeout.
func (s Multiple) Params() StrategyParams { return StrategyParams{TInf: s.TInf, B: s.B} }

// String renders the strategy with its parameters.
func (s Multiple) String() string { return fmt.Sprintf("multiple(b=%d, t∞=%.0fs)", s.B, s.TInf) }

func (s Multiple) validate() error {
	if err := core.ValidateB(s.B); err != nil {
		return fmt.Errorf("gridstrat: %w", err)
	}
	if !(s.TInf > 0) {
		return fmt.Errorf("gridstrat: multiple needs a positive timeout, got %v (call Optimize first?)", s.TInf)
	}
	return nil
}

// Evaluate computes Eq. 3–4 at the strategy's parameters.
func (s Multiple) Evaluate(m Model) (Evaluation, error) {
	if err := s.validate(); err != nil {
		return Evaluation{}, err
	}
	ej := core.EJMultiple(m, s.B, s.TInf)
	if math.IsInf(ej, 1) {
		return Evaluation{}, fmt.Errorf("gridstrat: no success probability at t∞=%v", s.TInf)
	}
	return Evaluation{EJ: ej, Sigma: core.SigmaMultiple(m, s.B, s.TInf), Parallel: float64(s.B)}, nil
}

// CDF returns the total-latency law of the strategy, nil if the
// parameters are invalid.
func (s Multiple) CDF(m Model) func(float64) float64 {
	if s.validate() != nil {
		return nil
	}
	return core.MultipleCDF(m, s.B, s.TInf)
}

// Optimize minimizes EJ over the timeout for the fixed collection
// size B.
func (s Multiple) Optimize(m Model) (Strategy, Evaluation, error) {
	return s.optimizeCtx(context.Background(), m, 1)
}

func (s Multiple) optimizeCtx(ctx context.Context, m Model, workers int) (Strategy, Evaluation, error) {
	tInf, ev, err := core.OptimizeMultiple(ctx, m, s.B, workers)
	if err != nil {
		return nil, Evaluation{}, err
	}
	return Multiple{B: s.B, TInf: tInf}, ev, nil
}

// Simulate replays the strategy against sampled latencies.
func (s Multiple) Simulate(m Model, runs int, rng Rand) (SimResult, error) {
	return s.simulateCtx(context.Background(), m, runs, rng, 1)
}

func (s Multiple) simulateCtx(ctx context.Context, m Model, runs int, rng Rand, workers int) (SimResult, error) {
	if rng == nil {
		return SimResult{}, errNilRand
	}
	if err := s.validate(); err != nil {
		return SimResult{}, err
	}
	return core.SimulateMultiple(ctx, m, s.B, s.TInf, runs, rng, workers)
}

// --- Delayed resubmission (paper §6) ---

// Delayed is the delayed-resubmission strategy: a copy is submitted
// every T0 seconds while nothing has started, each copy cancelled TInf
// after its own submission (T0 < TInf <= 2·T0). The zero value is the
// un-tuned strategy; Optimize tunes both knobs.
type Delayed struct {
	T0   float64
	TInf float64
}

// Name returns StrategyDelayed.
func (s Delayed) Name() StrategyName { return StrategyDelayed }

// Params returns the period and timeout.
func (s Delayed) Params() StrategyParams { return StrategyParams{TInf: s.TInf, T0: s.T0} }

// String renders the strategy with its parameters.
func (s Delayed) String() string { return fmt.Sprintf("delayed(t0=%.0fs, t∞=%.0fs)", s.T0, s.TInf) }

// DelayedParams returns the parameters in the core representation.
func (s Delayed) DelayedParams() DelayedParams { return DelayedParams{T0: s.T0, TInf: s.TInf} }

// Evaluate computes the exact EJ, σJ and E[N‖] at the strategy's
// parameters.
func (s Delayed) Evaluate(m Model) (Evaluation, error) {
	return core.DelayedEvaluate(m, s.DelayedParams())
}

// CDF returns the total-latency law of the strategy, nil if the
// parameters are invalid.
func (s Delayed) CDF(m Model) func(float64) float64 {
	p := s.DelayedParams()
	if p.Validate() != nil {
		return nil
	}
	return core.DelayedCDF(m, p)
}

// Optimize minimizes the exact EJ over (t0, t∞) subject to
// t0 < t∞ <= 2·t0.
func (s Delayed) Optimize(m Model) (Strategy, Evaluation, error) {
	return s.optimizeCtx(context.Background(), m, 1)
}

func (s Delayed) optimizeCtx(ctx context.Context, m Model, workers int) (Strategy, Evaluation, error) {
	p, ev, err := core.OptimizeDelayed(ctx, m, workers)
	if err != nil {
		return nil, Evaluation{}, err
	}
	return Delayed{T0: p.T0, TInf: p.TInf}, ev, nil
}

// Simulate replays the strategy against sampled latencies.
func (s Delayed) Simulate(m Model, runs int, rng Rand) (SimResult, error) {
	return s.simulateCtx(context.Background(), m, runs, rng, 1)
}

func (s Delayed) simulateCtx(ctx context.Context, m Model, runs int, rng Rand, workers int) (SimResult, error) {
	if rng == nil {
		return SimResult{}, errNilRand
	}
	return core.SimulateDelayed(ctx, m, s.DelayedParams(), runs, rng, workers)
}

// Strategies returns one un-tuned strategy per family — the natural
// argument list for Planner.Rank. b is the collection size of the
// Multiple entry.
func Strategies(b int) []Strategy {
	return []Strategy{Single{}, Multiple{B: b}, Delayed{}}
}

// AsStrategy converts the recommendation into the equivalent typed
// Strategy carrying the tuned parameters.
func (r Recommendation) AsStrategy() Strategy {
	switch r.Strategy {
	case StrategyMultiple:
		return Multiple{B: r.B, TInf: r.TInf}
	case StrategyDelayed:
		return Delayed{T0: r.Delayed.T0, TInf: r.Delayed.TInf}
	default:
		return Single{TInf: r.TInf}
	}
}
