package gridstrat

// The bench-snapshot harness records the repo's performance
// trajectory. The PR 2 snapshot (BENCH_PR2.json, committed) compared
// the sequential vs parallel execution engine; this PR 3 snapshot
// compares the PR 2 evaluation paths (O(n) ECDF integral walkers,
// binary-search bootstrap sampling) against the kernelized paths
// (prefix-sum integral kernels, swept grid scans, O(1) inverse-CDF
// sampling) on the same workloads. The JSON schema is unchanged; for
// BENCH_PR3.json the `sequential_ns` field holds the PR 2 path and
// `parallel_ns` the kernelized path, both at workers = 1, so `speedup`
// is the pure algorithmic win. It is gated behind an environment
// variable so regular test runs stay fast:
//
//	GRIDSTRAT_BENCH_SNAPSHOT=1 go test -run TestBenchSnapshot -v .
//
// CI runs it on every push and uploads the JSON as a build artifact
// (see .github/workflows/ci.yml). Every timed pair also cross-checks
// its two variants' results: integrals to 1e-12 and seeded Monte
// Carlo bit-for-bit, so the snapshot doubles as the exactness gate of
// the kernel rewrite.

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"gridstrat/internal/core"
	"gridstrat/internal/experiments"
	"gridstrat/internal/stats"
)

type benchSnapshot struct {
	Schema     string           `json:"schema"`
	PR         int              `json:"pr"`
	Generated  string           `json:"generated"`
	GoVersion  string           `json:"go"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Benchmarks []benchSnapEntry `json:"benchmarks"`
}

type benchSnapEntry struct {
	Name         string  `json:"name"`
	SequentialNS int64   `json:"sequential_ns"` // PR 2 path (walkers)
	ParallelNS   int64   `json:"parallel_ns"`   // kernelized path
	Speedup      float64 `json:"speedup"`
}

// walkerModel is the PR 2 evaluation path frozen as a Model: every
// integral runs the O(n) reference walker and every bootstrap draw the
// binary-search Quantile path. It deliberately does not implement
// BatchIntegrals/ProdBothIntegrals, so the optimizers evaluate it
// point by point (through the pointwise adapter), as they evaluated
// models before the kernel rewrite.
type walkerModel struct {
	e       *stats.ECDF
	rho, ub float64
}

func (m walkerModel) Ftilde(t float64) float64 { return (1 - m.rho) * m.e.Eval(t) }
func (m walkerModel) Rho() float64             { return m.rho }
func (m walkerModel) UpperBound() float64      { return m.ub }
func (m walkerModel) IntOneMinusFPow(T float64, b int) float64 {
	return m.e.IntegralOneMinusFPowWalk(T, 1-m.rho, b)
}
func (m walkerModel) IntUOneMinusFPow(T float64, b int) float64 {
	return m.e.IntegralUOneMinusFPowWalk(T, 1-m.rho, b)
}
func (m walkerModel) IntProdOneMinusF(T, shift float64) float64 {
	return m.e.IntegralProdOneMinusFWalk(T, shift, 1-m.rho)
}
func (m walkerModel) IntUProdOneMinusF(T, shift float64) float64 {
	return m.e.IntegralUProdOneMinusFWalk(T, shift, 1-m.rho)
}
func (m walkerModel) Sample(rng *rand.Rand) float64 {
	if rng.Float64() < m.rho {
		return core.Inf
	}
	return m.e.Quantile(rng.Float64()) // pre-table sampler
}

// timeIt returns the best-of-`reps` wall time of f.
func timeIt(t *testing.T, reps int, f func() error) int64 {
	t.Helper()
	best := int64(0)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start).Nanoseconds(); best == 0 || d < best {
			best = d
		}
	}
	return best
}

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestBenchSnapshot(t *testing.T) {
	if os.Getenv("GRIDSTRAT_BENCH_SNAPSHOT") == "" {
		t.Skip("set GRIDSTRAT_BENCH_SNAPSHOT=1 to record the perf snapshot (writes BENCH_PR3.json)")
	}
	out := os.Getenv("GRIDSTRAT_BENCH_OUT")
	if out == "" {
		out = "BENCH_PR3.json"
	}

	snap := benchSnapshot{
		Schema:     "gridstrat-bench-snapshot/v1",
		PR:         3,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	record := func(name string, walkNS, kernNS int64) {
		snap.Benchmarks = append(snap.Benchmarks, benchSnapEntry{
			Name:         name,
			SequentialNS: walkNS,
			ParallelNS:   kernNS,
			Speedup:      float64(walkNS) / float64(kernNS),
		})
		t.Logf("%s: PR2 path %v, kernelized %v (%.2fx)",
			name, time.Duration(walkNS), time.Duration(kernNS), float64(walkNS)/float64(kernNS))
	}

	ctx := context.Background()
	ec, err := experiments.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	kern, err := ec.Model(experiments.ReferenceDataset)
	if err != nil {
		t.Fatal(err)
	}
	walk := walkerModel{e: kern.ECDF(), rho: kern.Rho(), ub: kern.UpperBound()}

	// Grid-scan ablation: the multiple-submission timeout optimization
	// (the acceptance benchmark). Both paths run at workers = 1; the
	// results must agree to 1e-12.
	var tW, tK float64
	var evW, evK Evaluation
	optWalk := timeIt(t, 3, func() error {
		var err error
		tW, evW, err = core.OptimizeMultiple(ctx, walk, 5, 1)
		return err
	})
	optKern := timeIt(t, 3, func() error {
		var err error
		tK, evK, err = core.OptimizeMultiple(ctx, kern, 5, 1)
		return err
	})
	if !relClose(tW, tK, 1e-9) || !relClose(evW.EJ, evK.EJ, 1e-12) || !relClose(evW.Sigma, evK.Sigma, 1e-12) {
		t.Fatalf("kernelized optimum diverged: walker (%v, %+v) vs kernel (%v, %+v)", tW, evW, tK, evK)
	}
	record("AblationOptimizeMultipleB5", optWalk, optKern)

	// Figure-2 curve ablation: a 2000-point EJ(t∞) tabulation.
	var ejW, ejK []float64
	curveWalk := timeIt(t, 3, func() error {
		_, ejW = core.MultipleCurve(walk, 5, 2000, 2000)
		return nil
	})
	curveKern := timeIt(t, 3, func() error {
		_, ejK = core.MultipleCurve(kern, 5, 2000, 2000)
		return nil
	})
	for i := range ejW {
		if !relClose(ejW[i], ejK[i], 1e-12) {
			t.Fatalf("MultipleCurve[%d] diverged: %v vs %v", i, ejW[i], ejK[i])
		}
	}
	record("AblationMultipleCurveB5x2000", curveWalk, curveKern)

	// Delayed-surface ablation: the (t0, t∞) scan behind Figure 5. All
	// delayed integrals have b = 1, where kernel and walker are
	// bit-identical, so the optima must match exactly.
	var pW, pK DelayedParams
	surfWalk := timeIt(t, 1, func() error {
		var err error
		pW, _, err = core.OptimizeDelayed(ctx, walk, 1)
		return err
	})
	surfKern := timeIt(t, 1, func() error {
		var err error
		pK, _, err = core.OptimizeDelayed(ctx, kern, 1)
		return err
	})
	if pW != pK {
		t.Fatalf("delayed surface optimum diverged: %+v vs %+v", pW, pK)
	}
	record("AblationDelayedSurfaceScan", surfWalk, surfKern)

	// Monte Carlo ablation: the sampler acceptance criterion — the O(1)
	// inverse-CDF table must reproduce the binary-search draw stream
	// bit for bit, so two seeded replays must be identical structs.
	const mcRuns = 400000
	var mcW, mcK SimResult
	mcWalk := timeIt(t, 3, func() error {
		r, err := core.SimulateMultiple(ctx, walk, 3, 600, mcRuns, rand.New(rand.NewSource(1)), 1)
		mcW = r
		return err
	})
	mcKern := timeIt(t, 3, func() error {
		r, err := core.SimulateMultiple(ctx, kern, 3, 600, mcRuns, rand.New(rand.NewSource(1)), 1)
		mcK = r
		return err
	})
	if mcW != mcK {
		t.Fatalf("seeded Monte Carlo diverged across samplers: %+v vs %+v", mcW, mcK)
	}
	record("AblationMonteCarloMultiple400k", mcWalk, mcKern)

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d CPUs, GOMAXPROCS %d)", out, snap.NumCPU, snap.GOMAXPROCS)
}
