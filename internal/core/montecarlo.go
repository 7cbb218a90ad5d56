package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"gridstrat/internal/optimize"
)

// SimResult summarizes a Monte Carlo simulation of a strategy: the
// realized mean and standard deviation of the total latency J, the
// standard error of the mean, the average number of job submissions
// per task (infrastructure load in absolute submissions), and the
// average time-weighted parallel-copy count N‖.
type SimResult struct {
	Runs            int
	EJ              float64
	Sigma           float64
	StdErr          float64
	MeanSubmissions float64
	MeanParallel    float64
}

// ErrNoSuccessMass is returned when the timeout leaves no probability
// of a job starting, so every strategy would loop forever.
var ErrNoSuccessMass = errors.New("core: F̃R(t∞) = 0, strategy cannot terminate")

func checkSimInputs(m Model, tInf float64, runs int) error {
	if runs <= 0 {
		return fmt.Errorf("core: runs must be positive, got %d", runs)
	}
	if m.Ftilde(tInf) <= 0 {
		return ErrNoSuccessMass
	}
	return nil
}

// simCancelStride is how many Monte Carlo runs execute between two
// context checks in the simulators; the same stride bounds
// the resubmission rounds of a single run, which can themselves be
// near-unbounded when F̃R(t∞) is tiny.
const simCancelStride = 256

// --- Moment accumulation (Welford / Chan) ---

// moments accumulates count, mean and the centered sum of squares M2
// with Welford's update. The naive sum²/n − mean² formula cancels
// catastrophically when the mean dwarfs the spread (latencies around
// 10⁹ s with σ ≈ 1 s silently report σ = 0); Welford's recurrence
// keeps full precision and, with merge, gives the exact per-shard
// combination rule the sharded simulators need.
type moments struct {
	n    int64
	mean float64
	m2   float64
}

func (a *moments) add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// merge folds o into a (Chan et al.'s pairwise combination). The
// result depends on the order of merges, so callers that need
// reproducible output must merge shards in a fixed (index) order.
func (a *moments) merge(o moments) {
	if o.n == 0 {
		return
	}
	if a.n == 0 {
		*a = o
		return
	}
	n := a.n + o.n
	d := o.mean - a.mean
	a.mean += d * float64(o.n) / float64(n)
	a.m2 += o.m2 + d*d*float64(a.n)*float64(o.n)/float64(n)
	a.n = n
}

// variance returns the population variance M2/n (clamped at 0).
func (a *moments) variance() float64 {
	if a.n == 0 {
		return 0
	}
	v := a.m2 / float64(a.n)
	if v < 0 {
		v = 0
	}
	return v
}

// mcShard is one shard's accumulated state: latency moments plus the
// plain sums whose merge is exact in any case.
type mcShard struct {
	lat  moments
	subs float64 // total job submissions in the shard
	par  float64 // Σ over runs of the per-run N‖
}

func (s *mcShard) merge(o mcShard) {
	s.lat.merge(o.lat)
	s.subs += o.subs
	s.par += o.par
}

// --- Sharded execution ---

// mcShardRuns is the fixed shard granularity of the sharded
// simulators. The shard decomposition depends only on the total run
// count — never on the worker count — so a seeded simulation is
// bit-reproducible whether it executes on 1 or 64 goroutines.
const mcShardRuns = 2048

// splitmix64 is the SplitMix64 mixing function — the standard way to
// derive independent RNG streams from one seed (Steele et al.,
// "Fast splittable pseudorandom number generators").
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// splitMixSource is a rand.Source64 iterating the SplitMix64 sequence
// from a full 64-bit state. math/rand's own NewSource reduces its seed
// modulo 2³¹−1, which would collapse the per-shard seed space enough
// that two shards could silently replay identical streams; this source
// keeps all 64 bits, so shard streams are distinct pseudo-random
// segments of one 2⁶⁴-cycle (overlap probability is negligible for
// realistic shard counts and lengths).
type splitMixSource struct{ state uint64 }

func (s *splitMixSource) Uint64() uint64 {
	r := splitmix64(s.state) // mixes state + the SplitMix64 increment
	s.state += 0x9e3779b97f4a7c15
	return r
}

func (s *splitMixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitMixSource) Seed(seed int64) { s.state = uint64(seed) }

// NewSeededRand returns a *rand.Rand over the full-64-bit SplitMix64
// stream derived from seed — the same derivation the sharded
// simulators use per shard. Use it instead of
// rand.New(rand.NewSource(seed)) wherever distinct seeds must yield
// distinct streams.
func NewSeededRand(seed uint64) *rand.Rand {
	return rand.New(&splitMixSource{state: splitmix64(seed)})
}

// simulateSharded splits `runs` across ⌈runs/mcShardRuns⌉ shards, each
// driven by its own RNG derived deterministically from one draw off
// the caller's source, and executes them on up to `workers` goroutines
// (<= 0 means all cores, 1 runs sequentially on the caller's
// goroutine). Shard accumulators are merged in shard-index order, so
// the result is bit-identical for every worker count.
func simulateSharded(ctx context.Context, runs, workers int, rng *rand.Rand,
	body func(ctx context.Context, runs int, rng *rand.Rand, acc *mcShard) error) (SimResult, error) {

	shards := (runs + mcShardRuns - 1) / mcShardRuns
	// One draw, regardless of worker count: the master seed of the
	// whole sharded run.
	master := rng.Uint64()
	accs := make([]mcShard, shards)
	errs := make([]error, shards)
	optimize.ParallelFor(shards, optimize.Workers(workers), func(i int) {
		n := mcShardRuns
		if i == shards-1 {
			n = runs - i*mcShardRuns
		}
		srng := rand.New(&splitMixSource{state: splitmix64(master + uint64(i))})
		errs[i] = body(ctx, n, srng, &accs[i])
	})
	// Report the first failure in shard order, deterministically (the
	// only error source is ctx cancellation, which every later shard
	// hits on its first stride check, so nothing substantial runs past
	// a failure even on the sequential path).
	for _, err := range errs {
		if err != nil {
			return SimResult{}, err
		}
	}

	var total mcShard
	for i := range accs {
		total.merge(accs[i])
	}
	n := float64(runs)
	v := total.lat.variance()
	return SimResult{
		Runs:            runs,
		EJ:              total.lat.mean,
		Sigma:           math.Sqrt(v),
		StdErr:          math.Sqrt(v / n),
		MeanSubmissions: total.subs / n,
		MeanParallel:    total.par / n,
	}, nil
}

// --- Strategy replays ---

// SimulateSingle replays the single-resubmission strategy: submit,
// cancel at tInf, resubmit, until a job starts. It validates Eq. 1–2.
// A done ctx is noticed every simCancelStride runs and its error
// returned. Runs are sharded across up to `workers` goroutines (<= 0
// means all cores; 1 runs on the calling goroutine only, so m need not
// be safe for concurrent use). For a fixed rng state the result is
// identical for every worker count.
func SimulateSingle(ctx context.Context, m Model, tInf float64, runs int, rng *rand.Rand, workers int) (SimResult, error) {
	if err := checkSimInputs(m, tInf, runs); err != nil {
		return SimResult{}, err
	}
	return simulateSharded(ctx, runs, workers, rng, func(ctx context.Context, runs int, rng *rand.Rand, acc *mcShard) error {
		for i := 0; i < runs; i++ {
			if i%simCancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			var j float64
			for round := 1; ; round++ {
				if round%simCancelStride == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				acc.subs++
				l := m.Sample(rng)
				if l < tInf {
					j += l
					break
				}
				j += tInf
			}
			acc.lat.add(j)
			acc.par++ // single resubmission keeps exactly one copy in flight
		}
		return nil
	})
}

// SimulateMultiple replays the multiple-submission strategy: a
// collection of b copies is submitted, all canceled when one starts;
// the whole collection is resubmitted at tInf if none started. It
// validates Eq. 3–4. An invalid collection size is returned as an
// error; ctx and workers follow SimulateSingle's contract.
func SimulateMultiple(ctx context.Context, m Model, b int, tInf float64, runs int, rng *rand.Rand, workers int) (SimResult, error) {
	if err := ValidateB(b); err != nil {
		return SimResult{}, err
	}
	if err := checkSimInputs(m, tInf, runs); err != nil {
		return SimResult{}, err
	}
	return simulateSharded(ctx, runs, workers, rng, func(ctx context.Context, runs int, rng *rand.Rand, acc *mcShard) error {
		for i := 0; i < runs; i++ {
			if i%simCancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			var j float64
			for round := 1; ; round++ {
				if round%simCancelStride == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				acc.subs += float64(b)
				best := math.Inf(1)
				for k := 0; k < b; k++ {
					if l := m.Sample(rng); l < best {
						best = l
					}
				}
				if best < tInf {
					j += best
					break
				}
				j += tInf
			}
			acc.lat.add(j)
			acc.par += float64(b)
		}
		return nil
	})
}

// SimulateDelayed replays the delayed-resubmission strategy exactly as
// figure 4 of the paper describes it: a copy is submitted every T0
// while nothing has started, each copy is canceled TInf after its own
// submission, and everything is canceled the moment one copy starts.
// N‖ is measured as copy-seconds in the system divided by J. ctx and
// workers follow SimulateSingle's contract.
func SimulateDelayed(ctx context.Context, m Model, p DelayedParams, runs int, rng *rand.Rand, workers int) (SimResult, error) {
	if err := p.Validate(); err != nil {
		return SimResult{}, err
	}
	if err := checkSimInputs(m, p.TInf, runs); err != nil {
		return SimResult{}, err
	}
	return simulateSharded(ctx, runs, workers, rng, func(ctx context.Context, runs int, rng *rand.Rand, acc *mcShard) error {
		for i := 0; i < runs; i++ {
			if i%simCancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			j, submitted, copySeconds, err := runDelayedOnce(ctx, m, p, rng)
			if err != nil {
				return err
			}
			acc.lat.add(j)
			acc.subs += float64(submitted)
			if j > 0 {
				acc.par += copySeconds / j
			} else {
				// The first copy started instantly (a latency-law point
				// mass at 0): exactly one copy was ever in flight, so
				// N‖ = 1 by the same convention as NParallelGivenLatency.
				// Dividing would turn the whole result into NaN.
				acc.par++
			}
		}
		return nil
	})
}

// runDelayedOnce simulates one task under the delayed strategy and
// returns its total latency J, the number of copies submitted, and the
// total copy-seconds spent in the system before J. A cancelled ctx
// aborts even a single near-unbounded run.
func runDelayedOnce(ctx context.Context, m Model, p DelayedParams, rng *rand.Rand) (j float64, submitted int, copySeconds float64, err error) {
	best := math.Inf(1) // earliest start among submitted copies
	var submitTimes []float64
	for k := 0; ; k++ {
		if k > 0 && k%simCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return 0, 0, 0, err
			}
		}
		sub := float64(k) * p.T0
		if best <= sub {
			break // a copy already started; no further submissions
		}
		l := m.Sample(rng)
		submitted++
		submitTimes = append(submitTimes, sub)
		if l < p.TInf {
			if s := sub + l; s < best {
				best = s
			}
		}
	}
	j = best
	for _, sub := range submitTimes {
		// A copy occupies the system from its submission until its own
		// cancellation at sub+TInf, or until J when a copy starts and
		// the client cancels everything.
		end := math.Min(sub+p.TInf, j)
		if end > sub {
			copySeconds += end - sub
		}
	}
	return j, submitted, copySeconds, nil
}
