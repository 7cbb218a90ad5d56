package gridstrat

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"gridstrat/internal/core"
	"gridstrat/internal/workload"
)

// Compile-time checks that the concrete strategies satisfy the
// cancellable Strategy surface the Planner threads its context through.
var (
	_ ctxStrategy = Single{}
	_ ctxStrategy = Multiple{}
	_ ctxStrategy = Delayed{}
)

// Planner is the high-level facade over the strategy models: it owns a
// latency model, a parallel-copy budget, an optional deadline and cost
// ceiling, a context for cancelling long optimizations, a random
// source for Monte Carlo, and an execution parallelism degree.
//
// Everything the advisor compares depends on the model alone: the
// single-resubmission optimum (the Δcost reference), the multiple
// optimum per collection size and the ten delayed ratio optima. They
// live in a candidate table shared by every Planner over one model
// (see NewPlanner and Model) and are each optimized once, on first
// use; the options (WithMaxParallel, WithBudget, a class policy) only
// choose among them. Repeated queries (Recommend, then Rank, then
// RecommendForClass on the same model) are therefore cheap.
//
// A Planner is safe for concurrent use, including Simulate: the
// configured random source is only ever consumed under the Planner's
// lock to derive per-call master seeds, and everything downstream runs
// on derived, call-local RNG streams.
type Planner struct {
	model Model      // the model every computation runs on
	memo  *memoModel // model plus its candidate table, shared (see Model)
	cfg   plannerConfig

	// rngMu guards the master-seed draws of Simulate and the lazy
	// default random source.
	rngMu sync.Mutex
}

type plannerConfig struct {
	maxParallel float64
	deadline    float64
	budget      float64
	ctx         context.Context
	rng         Rand
	b           int
	parallelism int
}

// PlannerOption configures a Planner at construction.
type PlannerOption func(*plannerConfig) error

// WithMaxParallel sets the parallel-copy budget used by Recommend:
// only strategies whose average copy count stays within max compete.
// It must be finite and >= 1. The default is 2.
func WithMaxParallel(max float64) PlannerOption {
	return func(c *plannerConfig) error {
		if max < 1 || math.IsNaN(max) || math.IsInf(max, 1) {
			return fmt.Errorf("gridstrat: parallel budget %v must be finite and >= 1", max)
		}
		c.maxParallel = max
		return nil
	}
}

// WithDeadline sets the deadline (seconds) consumed by CompareDeadline
// and SmallestCollection.
func WithDeadline(d float64) PlannerOption {
	return func(c *plannerConfig) error {
		if !(d > 0) {
			return fmt.Errorf("gridstrat: deadline %v must be positive", d)
		}
		c.deadline = d
		return nil
	}
}

// WithBudget sets a Δcost ceiling (Eq. 6, relative to the single
// optimum): Recommend and Rank drop configurations whose
// infrastructure cost exceeds it. Zero (the default) means no
// ceiling.
func WithBudget(maxDelta float64) PlannerOption {
	return func(c *plannerConfig) error {
		if maxDelta < 0 || math.IsNaN(maxDelta) {
			return fmt.Errorf("gridstrat: cost budget %v must be >= 0 (0 clears the ceiling)", maxDelta)
		}
		c.budget = maxDelta
		return nil
	}
}

// WithContext attaches a context to the Planner: every long-running
// optimization and Monte Carlo simulation checks it and aborts with
// the context's error once it is done.
func WithContext(ctx context.Context) PlannerOption {
	return func(c *plannerConfig) error {
		if ctx == nil {
			return fmt.Errorf("gridstrat: nil context")
		}
		c.ctx = ctx
		return nil
	}
}

// WithRand sets the random source for the Planner's Monte Carlo
// entry points. The default is a deterministic source seeded with 1.
func WithRand(rng Rand) PlannerOption {
	return func(c *plannerConfig) error {
		if rng == nil {
			return errNilRand
		}
		c.rng = rng
		return nil
	}
}

// WithSeed sets the Planner's random source to a deterministic stream
// derived from the full 64-bit seed — shorthand for
// WithRand(NewSeededRand(seed)). Two Planners built with the same seed
// produce identical Simulate results for the same call sequence at any
// WithParallelism setting, which is what a service needs to make a
// simulation request reproducible from a wire-level seed field.
func WithSeed(seed uint64) PlannerOption {
	return func(c *plannerConfig) error {
		c.rng = core.NewSeededRand(seed)
		return nil
	}
}

// WithParallelism sets the number of worker goroutines the Planner's
// execution engine uses for grid-scan optimizations and Monte Carlo
// simulation. The default is runtime.GOMAXPROCS(0); n = 1 restores
// fully sequential execution on the calling goroutine. Results are
// independent of n: grid scans reduce in a fixed order and the
// sharded simulators derive per-shard RNG streams from a single seed
// draw, so a seeded run is bit-reproducible at any parallelism.
func WithParallelism(n int) PlannerOption {
	return func(c *plannerConfig) error {
		if n < 1 {
			return fmt.Errorf("gridstrat: parallelism %d must be >= 1", n)
		}
		c.parallelism = n
		return nil
	}
}

// WithCollectionSize sets the collection size b used where the Planner
// needs a default Multiple configuration (CompareDeadline, Rank with
// no arguments). It must be >= 1; the default is 2.
func WithCollectionSize(b int) PlannerOption {
	return func(c *plannerConfig) error {
		if err := core.ValidateB(b); err != nil {
			return fmt.Errorf("gridstrat: %w", err)
		}
		c.b = b
		return nil
	}
}

// NewPlanner builds a Planner over the latency model. The model's
// candidate table lives as long as the model the Planner hands out
// from Model, so build one Planner per model and reuse it, or build
// per-request Planners over that Model: a model returned by another
// Planner's Model is not wrapped again, so all of them share one
// table.
func NewPlanner(m Model, opts ...PlannerOption) (*Planner, error) {
	if m == nil {
		return nil, fmt.Errorf("gridstrat: nil model")
	}
	cfg := plannerConfig{
		maxParallel: 2,
		ctx:         context.Background(),
		b:           2,
		parallelism: runtime.GOMAXPROCS(0),
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	memo, ok := m.(*memoModel)
	if !ok {
		memo = &memoModel{Model: m}
	}
	return &Planner{model: memo.Model, memo: memo, cfg: cfg}, nil
}

// Model returns the Planner's shared model: the model it was built
// over, carrying its candidate table. Planners built over it share
// that table. It answers every Model method as the underlying model
// does, but not the optional batch kernels, so free functions scan it
// point by point; give them the underlying model instead.
func (p *Planner) Model() Model { return p.memo }

// baseline is the model's single-resubmission optimum: the Δcost
// reference and the single candidate every advisor query starts from.
type baseline struct {
	cc  *core.CostContext
	rec Recommendation
}

// baseline establishes (once per model) the cost baseline every Δcost
// figure is anchored on.
func (p *Planner) baseline() (baseline, error) {
	return p.memo.baseline.get(p.cfg.ctx, func() (baseline, error) {
		cc, err := core.NewCostContext(p.cfg.ctx, p.model, p.cfg.parallelism)
		if err != nil {
			return baseline{}, err
		}
		return baseline{cc: cc, rec: Recommendation{
			Strategy: StrategySingle,
			TInf:     cc.RefTimeout,
			Eval:     Evaluation{EJ: cc.RefEJ, Sigma: core.SigmaSingle(p.model, cc.RefTimeout), Parallel: 1},
			Delta:    1,
		}}, nil
	})
}

// single returns the single-resubmission optimum: the cost baseline's,
// or, for a model with no cost reference, a direct optimization.
func (p *Planner) single() (float64, Evaluation, error) {
	if base, err := p.baseline(); err == nil {
		return base.rec.TInf, base.rec.Eval, nil
	}
	return core.OptimizeSingle(p.cfg.ctx, p.model, p.cfg.parallelism)
}

// delayed returns the 2-D delayed optimum, optimized once per model.
func (p *Planner) delayed() (Delayed, Evaluation, error) {
	opt, err := p.memo.delayed.get(p.cfg.ctx, func() (optimum[Delayed], error) {
		dp, ev, err := core.OptimizeDelayed(p.cfg.ctx, p.model, p.cfg.parallelism)
		return optimum[Delayed]{Delayed{T0: dp.T0, TInf: dp.TInf}, ev}, err
	})
	return opt.s, opt.ev, err
}

// multiple returns the multiple-submission optimum for collection
// size b, optimized once per model for the sizes the table holds and
// per call beyond them.
func (p *Planner) multiple(b int) (Multiple, Evaluation, error) {
	optimize := func() (Multiple, Evaluation, error) {
		tInf, ev, err := core.OptimizeMultiple(p.cfg.ctx, p.model, b, p.cfg.parallelism)
		return Multiple{B: b, TInf: tInf}, ev, err
	}
	if b < 1 || b >= len(p.memo.multiple) {
		return optimize()
	}
	opt, err := p.memo.multiple[b].get(p.cfg.ctx, func() (optimum[Multiple], error) {
		s, ev, err := optimize()
		return optimum[Multiple]{s, ev}, err
	})
	return opt.s, opt.ev, err
}

// delayedRatios returns the delayed optimum of every ratio of
// delayedRatioGrid, optimized once per model. The evaluations carry EJ
// and σ only (Parallel zero): delayedParallels holds their E[N‖].
func (p *Planner) delayedRatios() ([]DelayedParams, []Evaluation, error) {
	opt, err := p.memo.ratios.get(p.cfg.ctx, func() (ratioOptima, error) {
		dps, evs, err := core.OptimizeDelayedRatios(p.cfg.ctx, p.model, delayedRatioGrid, p.cfg.parallelism)
		return ratioOptima{dps, evs}, err
	})
	return opt.dps, opt.evs, err
}

// delayedParallels returns E[N‖] at every ratio optimum dps (the
// table's, from delayedRatios), computed once per model, on first
// read: an answer that reads no delayed candidate's N‖ never pays it.
func (p *Planner) delayedParallels(dps []DelayedParams) ([]float64, error) {
	return p.memo.parallels.get(p.cfg.ctx, func() ([]float64, error) {
		return core.DelayedParallels(p.cfg.ctx, p.model, dps, p.cfg.parallelism)
	})
}

// Prepare fills every candidate-table entry Recommend and
// RecommendForClass read: the cost baseline, the multiple optimum at
// every collection size up to the class planner's cap, the delayed
// ratio optima and their E[N‖]. Afterwards no such query over the
// model optimizes or evaluates anything, whatever its options; without
// Prepare the first query at each collection size pays that size's
// optimization, and the first that reads a delayed candidate's N‖
// pays the ten E[N‖] evaluations.
func (p *Planner) Prepare() error {
	if _, err := p.baseline(); err != nil {
		return err
	}
	for b := 2; b <= classMaxB; b++ {
		if _, _, err := p.multiple(b); err != nil {
			return err
		}
	}
	dps, _, err := p.delayedRatios()
	if err != nil {
		return err
	}
	_, err = p.delayedParallels(dps)
	return err
}

// delayedRatioGrid is the t∞/t0 grid Recommend sweeps for
// budget-compatible delayed configurations (§6.2 of the paper).
var delayedRatioGrid = []float64{1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0}

// affordableB converts the parallel-copy budget to the largest
// affordable collection size without overflowing the int conversion
// for absurdly large budgets.
func affordableB(maxParallel float64) int {
	bf := math.Floor(maxParallel)
	if bf >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int(bf)
}

// Recommend picks the strategy with the smallest expected total
// latency among those whose average parallel-copy count stays within
// the Planner's WithMaxParallel budget (and, when WithBudget is set,
// whose Δcost stays under the ceiling). With a budget below 2 only
// single resubmission and budget-compatible delayed configurations
// compete; larger budgets unlock multiple submission with b up to
// ⌊budget⌋.
func (p *Planner) Recommend() (Recommendation, error) {
	base, err := p.baseline()
	if err != nil {
		return Recommendation{}, err
	}
	cc := base.cc
	inBudget := func(delta float64) bool { return p.cfg.budget <= 0 || delta <= p.cfg.budget }

	best := Recommendation{Eval: Evaluation{EJ: math.Inf(1)}}
	if inBudget(1) {
		best = base.rec
	}

	// Multiple submission with the largest affordable collection.
	if b := affordableB(p.cfg.maxParallel); b >= 2 {
		s, ev, err := p.multiple(b)
		if err != nil {
			return Recommendation{}, err
		}
		delta := cc.Delta(ev.EJ, float64(b))
		if inBudget(delta) && ev.EJ < best.Eval.EJ {
			best = Recommendation{Strategy: StrategyMultiple, TInf: s.TInf, B: b, Eval: ev, Delta: delta}
		}
	}

	// Delayed: sweep ratios, keep budget-compatible configurations. A
	// candidate that cannot beat the current best is dropped before its
	// N‖ is read, so E[N‖] is computed only when some candidate can.
	dps, evs, err := p.delayedRatios()
	if err != nil {
		return Recommendation{}, err
	}
	var pars []float64
	for i, ev := range evs {
		if math.IsInf(ev.EJ, 1) || !(ev.EJ < best.Eval.EJ) {
			continue
		}
		if pars == nil {
			if pars, err = p.delayedParallels(dps); err != nil {
				return Recommendation{}, err
			}
		}
		if ev.Parallel = pars[i]; ev.Parallel > p.cfg.maxParallel {
			continue
		}
		if delta := cc.Delta(ev.EJ, ev.Parallel); inBudget(delta) {
			best = Recommendation{Strategy: StrategyDelayed, Delayed: dps[i], Eval: ev, Delta: delta}
		}
	}
	if math.IsInf(best.Eval.EJ, 1) {
		return Recommendation{}, fmt.Errorf("gridstrat: no strategy fits Δcost budget %v", p.cfg.budget)
	}
	return best, nil
}

// classMaxB caps the collection sizes RecommendForClass enumerates —
// beyond this, extra copies buy vanishing deadline probability while
// the cost grows linearly. It also sizes the candidate table's
// per-b multiple optima.
const classMaxB = 8

// RecommendForClass plans one SLO class: among the configurations
// compatible with the class's parallel-copy and Δcost budgets (the
// optimized single baseline, multiple submission at every affordable
// collection size, and the budget-compatible delayed ratio sweep), it
// returns the cheapest one whose modeled deadline-hit probability
// P(J <= Policy.Deadline) reaches Policy.Target. When no candidate
// reaches the target, the planner reports infeasibility explicitly
// (Feasible = false) and returns the closest miss — it never silently
// recommends a configuration that misses the class SLO.
func (p *Planner) RecommendForClass(pol ClassPolicy) (ClassRecommendation, error) {
	if err := pol.Validate(); err != nil {
		return ClassRecommendation{}, fmt.Errorf("gridstrat: %w", err)
	}
	base, err := p.baseline()
	if err != nil {
		return ClassRecommendation{}, err
	}
	cc := base.cc
	inBudget := func(delta float64) bool { return pol.Budget <= 0 || delta <= pol.Budget }

	candidates := []Recommendation{base.rec}
	maxB := affordableB(pol.MaxParallel)
	if maxB > classMaxB {
		maxB = classMaxB
	}
	for b := 2; b <= maxB; b++ {
		s, ev, err := p.multiple(b)
		if err != nil {
			return ClassRecommendation{}, err
		}
		candidates = append(candidates, Recommendation{
			Strategy: StrategyMultiple, TInf: s.TInf, B: b, Eval: ev, Delta: cc.Delta(ev.EJ, float64(b))})
	}
	dps, evs, err := p.delayedRatios()
	if err != nil {
		return ClassRecommendation{}, err
	}
	pars, err := p.delayedParallels(dps)
	if err != nil {
		return ClassRecommendation{}, err
	}
	for i, ev := range evs {
		if ev.Parallel = pars[i]; math.IsInf(ev.EJ, 1) || ev.Parallel > pol.MaxParallel {
			continue
		}
		candidates = append(candidates, Recommendation{
			Strategy: StrategyDelayed, Delayed: dps[i], Eval: ev, Delta: cc.Delta(ev.EJ, ev.Parallel)})
	}

	out := ClassRecommendation{Policy: pol, PHit: math.Inf(-1)}
	bestDelta := math.Inf(1)
	for _, cand := range candidates {
		if cand.Eval.Parallel > pol.MaxParallel || !inBudget(cand.Delta) {
			continue
		}
		cdf := cand.AsStrategy().CDF(p.model)
		if cdf == nil {
			continue
		}
		pHit := cdf(pol.Deadline)
		switch {
		case pHit >= pol.Target && (!out.Feasible ||
			cand.Delta < bestDelta ||
			(cand.Delta == bestDelta && cand.Eval.EJ < out.Rec.Eval.EJ)):
			// Cheapest configuration meeting the SLO; expected latency
			// breaks Δcost ties.
			out.Feasible = true
			out.Rec, out.PHit, bestDelta = cand, pHit, cand.Delta
		case !out.Feasible && (pHit > out.PHit ||
			(pHit == out.PHit && cand.Delta < bestDelta)):
			// Track the closest miss until something feasible shows up.
			out.Rec, out.PHit, bestDelta = cand, pHit, cand.Delta
		}
	}
	if math.IsInf(out.PHit, -1) {
		return ClassRecommendation{}, fmt.Errorf(
			"gridstrat: no configuration fits class %s budgets (parallel <= %v, Δcost <= %v)",
			pol.Class, pol.MaxParallel, pol.Budget)
	}
	return out, nil
}

// RecommendForClasses plans every policy (see RecommendForClass) and
// returns the per-class recommendations in input order.
func (p *Planner) RecommendForClasses(policies []ClassPolicy) ([]ClassRecommendation, error) {
	out := make([]ClassRecommendation, 0, len(policies))
	for _, pol := range policies {
		cr, err := p.RecommendForClass(pol)
		if err != nil {
			return nil, err
		}
		out = append(out, cr)
	}
	return out, nil
}

// PlanClasses allocates collection sizes to per-class application
// demands in priority order under a shared parallel-copy capacity —
// the class-aware SmallestMeetingDeadline (see
// workload.SmallestMeetingDeadlineContended). It returns the
// allocations (critical first) and the unused capacity.
func (p *Planner) PlanClasses(demands []ClassDemand, capacity float64, maxB int) ([]ClassAllocation, float64, error) {
	return workload.SmallestMeetingDeadlineContended(p.model, demands, capacity, maxB)
}

// RecommendCheapest returns the configuration minimizing Δcost — the
// infrastructure-friendly choice of the paper's §7: usually a delayed
// strategy with Δcost < 1 when the latency law rewards it, otherwise
// plain single resubmission.
func (p *Planner) RecommendCheapest() (Recommendation, error) {
	base, err := p.baseline()
	if err != nil {
		return Recommendation{}, err
	}
	best := base.rec
	res, err := p.memo.cheapest.get(p.cfg.ctx, func() (core.CostResult, error) {
		return base.cc.OptimizeDelayedCost(p.cfg.ctx, p.cfg.parallelism)
	})
	if err != nil {
		return Recommendation{}, err
	}
	if res.Delta < best.Delta {
		best = Recommendation{Strategy: StrategyDelayed, Delayed: res.Params, Eval: res.Eval, Delta: res.Delta}
	}
	return best, nil
}

// Cost evaluates an explicitly parameterized strategy and returns its
// evaluation together with its Δcost relative to the Planner's single
// optimum — the paper's Eq. 6 for arbitrary configurations.
func (p *Planner) Cost(s Strategy) (Evaluation, float64, error) {
	base, err := p.baseline()
	if err != nil {
		return Evaluation{}, 0, err
	}
	ev, err := s.Evaluate(p.model)
	if err != nil {
		return Evaluation{}, 0, err
	}
	return ev, base.cc.Delta(ev.EJ, ev.Parallel), nil
}

// CompareDeadline evaluates the deadline-hit probability P(J <=
// deadline) and the 95th-percentile latency of the optimized single,
// multiple (WithCollectionSize copies) and 2-D delayed strategies at
// the Planner's WithDeadline deadline. The three optima come from the
// model's candidate table, so each is optimized once per model.
func (p *Planner) CompareDeadline() (DeadlineReport, error) {
	if p.cfg.deadline <= 0 {
		return DeadlineReport{}, fmt.Errorf("gridstrat: no deadline configured (use WithDeadline)")
	}
	if err := core.ValidateB(p.cfg.b); err != nil {
		return DeadlineReport{}, err
	}
	tS, _, err := p.single()
	if err != nil {
		return DeadlineReport{}, err
	}
	m, _, err := p.multiple(p.cfg.b)
	if err != nil {
		return DeadlineReport{}, err
	}
	d, ev, err := p.delayed()
	if err != nil {
		return DeadlineReport{}, err
	}
	return core.NewDeadlineReport(p.model, p.cfg.deadline, tS, m.B, m.TInf, DelayedParams{T0: d.T0, TInf: d.TInf}, ev.Parallel)
}

// Optimize tunes a strategy's free parameters on the Planner's model
// under the Planner's context and parallelism. The paper strategies'
// optima come from the model's candidate table, so each is optimized
// once per model.
func (p *Planner) Optimize(s Strategy) (Strategy, Evaluation, error) {
	switch s := s.(type) {
	case Single:
		tInf, ev, err := p.single()
		if err != nil {
			return nil, Evaluation{}, err
		}
		return Single{TInf: tInf}, ev, nil
	case Multiple:
		tuned, ev, err := p.multiple(s.B)
		if err != nil {
			return nil, Evaluation{}, err
		}
		return tuned, ev, nil
	case Delayed:
		tuned, ev, err := p.delayed()
		if err != nil {
			return nil, Evaluation{}, err
		}
		return tuned, ev, nil
	}
	cs, ok := s.(ctxStrategy)
	if !ok {
		return s.Optimize(p.model)
	}
	return cs.optimizeCtx(p.cfg.ctx, p.model, p.cfg.parallelism)
}

// Simulate replays a parameterized strategy against the Planner's
// model with the Planner's random source, context and parallelism.
// Each call draws one master seed from the configured source (under
// the Planner's lock, so concurrent Simulate calls are safe) and runs
// the sharded simulator on a stream derived from it; for a fixed seed
// and call order the result is bit-identical at any WithParallelism
// setting.
func (p *Planner) Simulate(s Strategy, runs int) (SimResult, error) {
	p.rngMu.Lock()
	if p.cfg.rng == nil {
		// The default source is built on first use: seeding it costs
		// more than a whole Recommend over a filled candidate table.
		p.cfg.rng = rand.New(rand.NewSource(1))
	}
	seed := p.cfg.rng.Uint64()
	p.rngMu.Unlock()
	// Full-64-bit derivation: rand.NewSource would truncate the seed
	// modulo 2³¹−1 and could hand two calls identical streams.
	rng := core.NewSeededRand(seed)
	cs, ok := s.(ctxStrategy)
	if !ok {
		return s.Simulate(p.model, runs, rng)
	}
	return cs.simulateCtx(p.cfg.ctx, p.model, runs, rng, p.cfg.parallelism)
}

// resolve returns a fully parameterized version of s with its
// evaluation. Strategies with no timing parameters set (zero TInf and
// T0) are optimized first; anything with a nonzero timing parameter —
// including a negative or NaN one — is evaluated exactly as given, so
// a partially or invalidly specified strategy (e.g. Delayed with only
// T0) fails with its validation error rather than silently re-tuning
// the pinned knob.
func (p *Planner) resolve(s Strategy) (Strategy, Evaluation, error) {
	if s == nil {
		return nil, Evaluation{}, fmt.Errorf("gridstrat: nil strategy")
	}
	if params := s.Params(); params.TInf != 0 || params.T0 != 0 {
		ev, err := s.Evaluate(p.model)
		if err != nil {
			return nil, Evaluation{}, err
		}
		return s, ev, nil
	}
	return p.Optimize(s)
}

// RankedStrategy is one entry of Planner.Rank's ordering.
type RankedStrategy struct {
	Strategy Strategy   // tuned strategy
	Eval     Evaluation // EJ, σJ, N‖ at the tuned parameters
	Delta    float64    // Δcost relative to the single optimum
}

// Rank optimizes (when needed) and evaluates the given strategies on
// the Planner's model and returns them sorted by ascending expected
// latency. Called with no arguments it ranks the three paper
// strategies with the Planner's default collection size. When
// WithBudget is set, configurations over the Δcost ceiling are
// dropped.
func (p *Planner) Rank(strategies ...Strategy) ([]RankedStrategy, error) {
	if len(strategies) == 0 {
		strategies = Strategies(p.cfg.b)
	}
	base, err := p.baseline()
	if err != nil {
		return nil, err
	}
	out := make([]RankedStrategy, 0, len(strategies))
	for _, s := range strategies {
		tuned, ev, err := p.resolve(s)
		if err != nil {
			return nil, err
		}
		delta := base.cc.Delta(ev.EJ, ev.Parallel)
		if p.cfg.budget > 0 && delta > p.cfg.budget {
			continue
		}
		out = append(out, RankedStrategy{Strategy: tuned, Eval: ev, Delta: delta})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Eval.EJ < out[j].Eval.EJ })
	return out, nil
}

// workloadLaw bridges a tuned Strategy to the makespan model's
// representation of its total-latency law.
func (p *Planner) workloadLaw(s Strategy, ev Evaluation) workload.Strategy {
	params := s.Params()
	hint := params.TInf
	if params.T0 > 0 {
		hint = params.T0
	}
	return workload.Strategy{
		Name: fmt.Sprint(s),
		CDF:  s.CDF(p.model),
		EJ:   ev.EJ,
		Load: ev.Parallel,
		Hint: hint,
	}
}

// EstimateMakespan computes the expected wall-clock time of a
// bag-of-tasks application under the Planner's recommended strategy
// (order-statistics wave model over the strategy's latency law).
func (p *Planner) EstimateMakespan(app Application) (MakespanEstimate, error) {
	rec, err := p.Recommend()
	if err != nil {
		return MakespanEstimate{}, err
	}
	return p.EstimateMakespanUnder(app, rec.AsStrategy())
}

// EstimateMakespanUnder computes the expected wall-clock time of the
// application under one explicit strategy; un-tuned strategies are
// optimized first.
func (p *Planner) EstimateMakespanUnder(app Application, s Strategy) (MakespanEstimate, error) {
	tuned, ev, err := p.resolve(s)
	if err != nil {
		return MakespanEstimate{}, err
	}
	return workload.EstimateMakespan(app, p.workloadLaw(tuned, ev))
}

// CompareMakespan evaluates several strategies on one application,
// returning estimates in input order; un-tuned strategies are
// optimized first.
func (p *Planner) CompareMakespan(app Application, strategies ...Strategy) ([]MakespanEstimate, error) {
	out := make([]MakespanEstimate, 0, len(strategies))
	for _, s := range strategies {
		est, err := p.EstimateMakespanUnder(app, s)
		if err != nil {
			return nil, err
		}
		out = append(out, est)
	}
	return out, nil
}

// SmallestCollection returns the smallest collection size b (up to
// maxB) whose analytic makespan meets the Planner's WithDeadline
// deadline, or 0 if none does.
func (p *Planner) SmallestCollection(app Application, maxB int) (int, MakespanEstimate, error) {
	if p.cfg.deadline <= 0 {
		return 0, MakespanEstimate{}, fmt.Errorf("gridstrat: no deadline configured (use WithDeadline)")
	}
	if maxB < 1 {
		return 0, MakespanEstimate{}, fmt.Errorf("gridstrat: maxB must be >= 1, got %d", maxB)
	}
	if err := app.Validate(); err != nil {
		return 0, MakespanEstimate{}, err
	}
	for b := 1; b <= maxB; b++ {
		est, err := p.EstimateMakespanUnder(app, Multiple{B: b})
		if err != nil {
			return 0, MakespanEstimate{}, err
		}
		if est.Makespan <= p.cfg.deadline {
			return b, est, nil
		}
	}
	return 0, MakespanEstimate{}, nil
}

// --- Candidate table ---

// memoModel is the model Planner.Model hands out: the underlying model
// plus its candidate table, the configurations the advisor compares.
// Each entry is optimized on first use under the asking Planner's
// context and parallelism (answers do not depend on the parallelism)
// and then kept for every Planner over the model. Options never reach
// the table; Recommend and RecommendForClass only filter it. The ratio
// optima's E[N‖] is an entry of its own, filled only when an answer
// reads a delayed candidate's N‖ (or by Prepare). Recommend reads it
// only when some delayed optimum has a lower EJ than its best other
// candidate, which on the paper datasets no option-free query meets.
//
// The model's integrals are not memoized: with every entry computed
// once, the optimizers ask for the same integral again in about one
// lookup in a hundred, and an ECDF answers each from its own tables.
type memoModel struct {
	Model // the underlying model

	baseline  flight[baseline]
	multiple  [classMaxB + 1]flight[optimum[Multiple]] // by collection size; 0 unused
	ratios    flight[ratioOptima]                      // delayedRatioGrid optima: EJ, σ
	parallels flight[[]float64]                        // E[N‖] at each ratio optimum
	delayed   flight[optimum[Delayed]]                 // the 2-D delayed optimum
	cheapest  flight[core.CostResult]                  // the Δcost minimum
}

// optimum is one tuned strategy with its evaluation.
type optimum[S Strategy] struct {
	s  S
	ev Evaluation
}

// ratioOptima holds the delayed optima of delayedRatioGrid, in order,
// with EJ and σ (their E[N‖] is the parallels entry).
type ratioOptima struct {
	dps []DelayedParams
	evs []Evaluation
}

// flight is one table entry, filled single-flighted: the first caller
// computes it while later callers wait for that result. A fill that
// fails with a context error (or panics) is not kept, so the next
// caller computes again under its own context; any other result,
// errors included, is kept.
type flight[T any] struct {
	mu   sync.Mutex
	fill *fill[T] // nil until a fill starts, and again after a dropped one
}

type fill[T any] struct {
	done    chan struct{} // closed when val, err and dropped are final
	val     T
	err     error
	dropped bool
}

// get returns the entry, computing it with compute if no kept fill
// exists. A caller waiting for another's fill gives up with ctx's
// error once ctx is done.
func (f *flight[T]) get(ctx context.Context, compute func() (T, error)) (T, error) {
	for {
		f.mu.Lock()
		c := f.fill
		if c == nil {
			c = &fill[T]{done: make(chan struct{}), dropped: true}
			f.fill = c
			f.mu.Unlock()
			f.run(c, compute)
			return c.val, c.err
		}
		f.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			select {
			case <-c.done: // finished too: the result wins
			default:
				var zero T
				return zero, ctx.Err()
			}
		}
		if !c.dropped {
			return c.val, c.err
		}
	}
}

// run computes fill c and publishes it; a dropped fill is unlinked
// before its waiters wake, so they start a new one.
func (f *flight[T]) run(c *fill[T], compute func() (T, error)) {
	defer func() {
		if c.dropped {
			f.mu.Lock()
			f.fill = nil
			f.mu.Unlock()
		}
		close(c.done)
	}()
	c.val, c.err = compute()
	c.dropped = errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)
}
