package gridstrat

import (
	"context"
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
// source for Monte Carlo, and an execution parallelism degree. All
// integral evaluations on the model are memoized behind the Planner,
// so repeated queries (Recommend, then Rank, then CompareDeadline on
// the same model) are cheap.
//
// A Planner is safe for concurrent use, including Simulate: the
// configured random source is only ever consumed under the Planner's
// lock to derive per-call master seeds, and everything downstream runs
// on derived, call-local RNG streams.
type Planner struct {
	model Model // memoized wrapper around the user's model
	cfg   plannerConfig

	mu sync.Mutex
	cc *core.CostContext // lazily established cost baseline

	// rngMu guards only the master-seed draws of Simulate. It is
	// separate from mu so a Simulate call never blocks behind the
	// (potentially seconds-long) first-query cost-baseline
	// optimization that costContext runs under mu.
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
// integral evaluations are memoized for the Planner's lifetime, so
// build one Planner per model and reuse it across queries.
func NewPlanner(m Model, opts ...PlannerOption) (*Planner, error) {
	if m == nil {
		return nil, fmt.Errorf("gridstrat: nil model")
	}
	cfg := plannerConfig{
		maxParallel: 2,
		ctx:         context.Background(),
		rng:         rand.New(rand.NewSource(1)),
		b:           2,
		parallelism: runtime.GOMAXPROCS(0),
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	return &Planner{model: newMemoModel(m), cfg: cfg}, nil
}

// Model returns the Planner's memoized model. It satisfies Model and
// can be passed to any free function in this package; evaluations made
// through it share the Planner's cache.
func (p *Planner) Model() Model { return p.model }

// costContext establishes (once) the single-resubmission cost
// baseline every Δcost figure is anchored on.
func (p *Planner) costContext() (*core.CostContext, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cc != nil {
		return p.cc, nil
	}
	cc, err := core.NewCostContextCtx(p.cfg.ctx, p.model, p.cfg.parallelism)
	if err != nil {
		return nil, err
	}
	p.cc = cc
	return cc, nil
}

// delayedRatioGrid is the t∞/t0 grid Recommend sweeps for
// budget-compatible delayed configurations (§6.2 of the paper).
var delayedRatioGrid = []float64{1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0}

// singleBaseline is the single-resubmission entry every advisor query
// starts from: the Δcost reference itself.
func (p *Planner) singleBaseline(cc *core.CostContext) Recommendation {
	return Recommendation{
		Strategy: StrategySingle,
		TInf:     cc.RefTimeout,
		Eval:     Evaluation{EJ: cc.RefEJ, Sigma: core.SigmaSingle(p.model, cc.RefTimeout), Parallel: 1},
		Delta:    1,
	}
}

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
	cc, err := p.costContext()
	if err != nil {
		return Recommendation{}, err
	}
	inBudget := func(delta float64) bool { return p.cfg.budget <= 0 || delta <= p.cfg.budget }

	best := Recommendation{Eval: Evaluation{EJ: math.Inf(1)}}
	if inBudget(1) {
		best = p.singleBaseline(cc)
	}

	// Multiple submission with the largest affordable collection.
	if b := affordableB(p.cfg.maxParallel); b >= 2 {
		tInf, ev, err := core.OptimizeMultipleCtx(p.cfg.ctx, p.model, b, p.cfg.parallelism)
		if err != nil {
			return Recommendation{}, err
		}
		delta := cc.Delta(ev.EJ, float64(b))
		if inBudget(delta) && ev.EJ < best.Eval.EJ {
			best = Recommendation{Strategy: StrategyMultiple, TInf: tInf, B: b, Eval: ev, Delta: delta}
		}
	}

	// Delayed: sweep ratios, keep budget-compatible configurations.
	dps, evs, err := core.OptimizeDelayedRatiosCtx(p.cfg.ctx, p.model, delayedRatioGrid, p.cfg.parallelism)
	if err != nil {
		return Recommendation{}, err
	}
	for i, ev := range evs {
		if math.IsInf(ev.EJ, 1) || ev.Parallel > p.cfg.maxParallel {
			continue
		}
		delta := cc.Delta(ev.EJ, ev.Parallel)
		if inBudget(delta) && ev.EJ < best.Eval.EJ {
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
// the cost grows linearly.
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
	cc, err := p.costContext()
	if err != nil {
		return ClassRecommendation{}, err
	}
	inBudget := func(delta float64) bool { return pol.Budget <= 0 || delta <= pol.Budget }

	candidates := []Recommendation{p.singleBaseline(cc)}
	maxB := affordableB(pol.MaxParallel)
	if maxB > classMaxB {
		maxB = classMaxB
	}
	for b := 2; b <= maxB; b++ {
		tInf, ev, err := core.OptimizeMultipleCtx(p.cfg.ctx, p.model, b, p.cfg.parallelism)
		if err != nil {
			return ClassRecommendation{}, err
		}
		candidates = append(candidates, Recommendation{
			Strategy: StrategyMultiple, TInf: tInf, B: b, Eval: ev, Delta: cc.Delta(ev.EJ, float64(b))})
	}
	dps, evs, err := core.OptimizeDelayedRatiosCtx(p.cfg.ctx, p.model, delayedRatioGrid, p.cfg.parallelism)
	if err != nil {
		return ClassRecommendation{}, err
	}
	for i, ev := range evs {
		if math.IsInf(ev.EJ, 1) || ev.Parallel > pol.MaxParallel {
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
	cc, err := p.costContext()
	if err != nil {
		return Recommendation{}, err
	}
	best := p.singleBaseline(cc)
	res, err := cc.OptimizeDelayedCostCtx(p.cfg.ctx, p.cfg.parallelism)
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
	cc, err := p.costContext()
	if err != nil {
		return Evaluation{}, 0, err
	}
	ev, err := s.Evaluate(p.model)
	if err != nil {
		return Evaluation{}, 0, err
	}
	return ev, cc.Delta(ev.EJ, ev.Parallel), nil
}

// CompareDeadline evaluates the deadline-hit probability P(J <=
// deadline) and the 95th-percentile latency of the optimized single,
// multiple (WithCollectionSize copies) and delayed strategies at the
// Planner's WithDeadline deadline.
func (p *Planner) CompareDeadline() (DeadlineReport, error) {
	if p.cfg.deadline <= 0 {
		return DeadlineReport{}, fmt.Errorf("gridstrat: no deadline configured (use WithDeadline)")
	}
	return core.CompareDeadlineCtx(p.cfg.ctx, p.model, p.cfg.deadline, p.cfg.b, p.cfg.parallelism)
}

// Optimize tunes a strategy's free parameters on the Planner's model
// under the Planner's context and parallelism.
func (p *Planner) Optimize(s Strategy) (Strategy, Evaluation, error) {
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
	cc, err := p.costContext()
	if err != nil {
		return nil, err
	}
	out := make([]RankedStrategy, 0, len(strategies))
	for _, s := range strategies {
		tuned, ev, err := p.resolve(s)
		if err != nil {
			return nil, err
		}
		delta := cc.Delta(ev.EJ, ev.Parallel)
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

// --- Memoized model ---

// memoCache wraps a Model and caches its pointwise and integral
// evaluations. The strategy optimizers hammer the same integrals at
// the same grid points across queries (Recommend's ratio sweep,
// CompareDeadline's three optimizations, Rank), so one Planner-level
// cache makes repeated queries on one model cheap. Sample is
// deliberately not cached.
//
// NaN arguments bypass the cache entirely: NaN != NaN, so a NaN key
// could never be hit again and every NaN query would leak one dead map
// entry. With NaN excluded, total memory is bounded by the five maps ×
// memoLimit entries each (each map is reset wholesale when full).
//
// A memoCache has no batch kernels, so the optimizers scan it point by
// point and every grid point is a cached scalar lookup; a base model
// with its own kernels is wrapped in a memoModel instead.
type memoCache struct {
	base Model

	mu     sync.Mutex
	ftilde map[float64]float64
	pow    map[powKey]float64
	upow   map[powKey]float64
	prod   map[prodKey]float64
	uprod  map[prodKey]float64
}

// memoModel is the memo cache over a base model that brings its own
// batch kernels: the swept grid scans call the base's kernels
// directly (identical to the scalar values, so bypassing the memo
// maps is safe) and everything else goes through the cache.
type memoModel struct {
	*memoCache
	core.BatchIntegrals
}

type powKey struct {
	t float64
	b int
}

type prodKey struct {
	t, shift float64
}

// memoLimit bounds each cache map; when one fills up it is reset
// rather than evicted entry-by-entry (optimizer grids are reused
// wholesale, so partial eviction buys nothing).
const memoLimit = 1 << 18

// newMemoModel wraps m in the Planner's memo cache (see memoCache).
func newMemoModel(m Model) Model {
	switch m.(type) {
	case *memoModel, *memoCache:
		// Avoid double-wrapping when a Planner is built over another
		// Planner's model.
		return m
	}
	c := &memoCache{
		base:   m,
		ftilde: make(map[float64]float64),
		pow:    make(map[powKey]float64),
		upow:   make(map[powKey]float64),
		prod:   make(map[prodKey]float64),
		uprod:  make(map[prodKey]float64),
	}
	if bi, ok := m.(core.BatchIntegrals); ok {
		return &memoModel{memoCache: c, BatchIntegrals: bi}
	}
	return c
}

func (m *memoCache) Ftilde(t float64) float64 {
	if math.IsNaN(t) {
		return m.base.Ftilde(t)
	}
	return cached(&m.mu, &m.ftilde, t, func() float64 { return m.base.Ftilde(t) })
}

func (m *memoCache) Rho() float64        { return m.base.Rho() }
func (m *memoCache) UpperBound() float64 { return m.base.UpperBound() }

func (m *memoCache) IntOneMinusFPow(T float64, b int) float64 {
	if math.IsNaN(T) {
		return m.base.IntOneMinusFPow(T, b)
	}
	return cached(&m.mu, &m.pow, powKey{t: T, b: b}, func() float64 { return m.base.IntOneMinusFPow(T, b) })
}

func (m *memoCache) IntUOneMinusFPow(T float64, b int) float64 {
	if math.IsNaN(T) {
		return m.base.IntUOneMinusFPow(T, b)
	}
	return cached(&m.mu, &m.upow, powKey{t: T, b: b}, func() float64 { return m.base.IntUOneMinusFPow(T, b) })
}

// IntProdBothOneMinusF implements core.ProdBothIntegrals through the
// memoized scalar cross terms. Only a final delayed evaluation (EJ and
// σJ) asks for both; the scans ask for the plain term alone.
func (m *memoCache) IntProdBothOneMinusF(T, shift float64) (plain, uweighted float64) {
	return m.IntProdOneMinusF(T, shift), m.IntUProdOneMinusF(T, shift)
}

func (m *memoCache) IntProdOneMinusF(T, shift float64) float64 {
	if math.IsNaN(T) || math.IsNaN(shift) {
		return m.base.IntProdOneMinusF(T, shift)
	}
	return cached(&m.mu, &m.prod, prodKey{t: T, shift: shift}, func() float64 { return m.base.IntProdOneMinusF(T, shift) })
}

func (m *memoCache) IntUProdOneMinusF(T, shift float64) float64 {
	if math.IsNaN(T) || math.IsNaN(shift) {
		return m.base.IntUProdOneMinusF(T, shift)
	}
	return cached(&m.mu, &m.uprod, prodKey{t: T, shift: shift}, func() float64 { return m.base.IntUProdOneMinusF(T, shift) })
}

// cached is the memoModel lookup-or-compute step: the value is
// computed outside the lock (duplicate concurrent computes are benign
// — the integrals are pure), and a full cache hitting memoLimit is
// reset wholesale. Callers must keep NaN out of k (see memoModel);
// this is the cache boundary the parallel grid scans hammer
// concurrently, so it must stay correct under -race.
func cached[K comparable](mu *sync.Mutex, slot *map[K]float64, k K, compute func() float64) float64 {
	mu.Lock()
	if v, ok := (*slot)[k]; ok {
		mu.Unlock()
		return v
	}
	mu.Unlock()
	v := compute()
	mu.Lock()
	if len(*slot) >= memoLimit {
		*slot = make(map[K]float64)
	}
	(*slot)[k] = v
	mu.Unlock()
	return v
}

func (m *memoCache) Sample(rng *rand.Rand) float64 { return m.base.Sample(rng) }
