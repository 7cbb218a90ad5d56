package core

import (
	"context"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"gridstrat/internal/stats"
)

// round0Grid returns OptimizeDelayedRatios' shared round-0 t0 grid.
func round0Grid(m Model) []float64 {
	ub := m.UpperBound()
	a, b := ub*1e-3, ub/2
	h := (b - a) / ratioScanN
	t0s := make([]float64, ratioScanN+1)
	for i := range t0s {
		t0s[i] = a + float64(i)*h
	}
	return t0s
}

// cellBounds is round0Bounds at (t0, t∞ = ratio·t0) from the scalar
// integrals, which equal the batch values bit for bit; ok is false
// where the cell is invalid.
func cellBounds(k kernels, t0, ratio float64) (lo, hi float64, ok bool) {
	q, ok := delayedCellQ(k, t0, ratio)
	if !ok {
		return 0, 0, false
	}
	w := ratio*t0 - t0
	lo, hi = round0Bounds(k.IntOneMinusFPow(t0, 1), k.IntOneMinusFPow(w, 1),
		k.IntOneMinusFPow(ratio*t0, 1), 1-k.Ftilde(t0), q, w)
	return lo, hi, true
}

// round0Argmin is a ratio's round-0 incumbent: the smallest value,
// ties going to the smaller t0.
func round0Argmin(vs []float64) (int, float64) {
	x, f := 0, math.Inf(1)
	for i, v := range vs {
		if v < f {
			x, f = i, v
		}
	}
	return x, f
}

// round0Models are the models the round-0 tests prune: the paper
// datasets, an ingest-shaped window and a sketch-backed model.
func round0Models(t *testing.T) map[string]Model {
	t.Helper()
	models := ratioGridModels(t)
	delete(models, "scalarOnly")
	return models
}

// TestRound0BoundsSound checks the certificate round 0 prunes with: at
// every cell of the 401×10 grid the walked EJ lies in round0Bounds'
// [lo, hi]. The pruned grid keeps every value it walks bit for bit and
// each ratio's incumbent.
func TestRound0BoundsSound(t *testing.T) {
	for name, m := range round0Models(t) {
		k := kernelsOf(m)
		t0s := round0Grid(m)
		n := len(t0s)
		full := ejDelayedRatioGrid(context.Background(), k, oracleRatios, t0s, 1, false)
		pruned := ejDelayedRatioGrid(context.Background(), k, oracleRatios, t0s, 2, true)
		walked := 0
		for i, t0 := range t0s {
			for j := range oracleRatios {
				if !math.IsInf(pruned[j*n+i], 1) {
					walked++
					break
				}
			}
			for j, r := range oracleRatios {
				v := full[j*n+i]
				lo, hi, ok := cellBounds(k, t0, r)
				if !ok {
					if !math.IsInf(v, 1) {
						t.Fatalf("%s ratio %v t0 %v: invalid cell reads %v", name, r, t0, v)
					}
					continue
				}
				if !(lo <= v && v <= hi) {
					t.Fatalf("%s ratio %v t0 %v: walked EJ %v outside [%v, %v]", name, r, t0, v, lo, hi)
				}
				if p := pruned[j*n+i]; !math.IsInf(p, 1) && p != v {
					t.Fatalf("%s ratio %v t0 %v: pruned %v, full grid %v", name, r, t0, p, v)
				}
			}
		}
		for j, r := range oracleRatios {
			fi, ff := round0Argmin(full[j*n : (j+1)*n])
			pi, pf := round0Argmin(pruned[j*n : (j+1)*n])
			if fi != pi || ff != pf {
				t.Fatalf("%s ratio %v: pruned incumbent t0[%d] = %v, full grid t0[%d] = %v", name, r, pi, pf, fi, ff)
			}
		}
		t.Logf("%s: %d of %d rows walked", name, walked, n)
	}
}

// prodBothCounter counts the merged row walks of the empirical model
// it wraps, which keeps its own kernels.
type prodBothCounter struct {
	*EmpiricalModel
	rows atomic.Int64
}

func (c *prodBothCounter) IntProdBothBatch(Ts []float64, shift float64) ([]float64, []float64) {
	c.rows.Add(1)
	return c.EmpiricalModel.IntProdBothBatch(Ts, shift)
}

// TestRound0WalksFewRows gates the pruning: on every paper dataset
// OptimizeDelayedRatios' round 0, the only caller of the merged row
// walk in the search, walks at most 40 of its 401 rows.
func TestRound0WalksFewRows(t *testing.T) {
	const maxRows = 40
	for name, m := range paperModels(t) {
		c := &prodBothCounter{EmpiricalModel: m}
		if _, _, err := OptimizeDelayedRatios(context.Background(), c, oracleRatios, 2); err != nil {
			t.Fatal(err)
		}
		if n := c.rows.Load(); n > maxRows {
			t.Errorf("%s: round 0 walked %d rows, want <= %d", name, n, maxRows)
		} else {
			t.Logf("%s: %d rows walked", name, n)
		}
	}
}

// scalarCancelCounter counts the scalar integral calls of a model
// scanned pointwise and calls cancel at call cancelAt.
type scalarCancelCounter struct {
	Model
	calls    atomic.Int64
	cancelAt int64
	cancel   func()
}

func (c *scalarCancelCounter) tick() {
	if c.calls.Add(1) == c.cancelAt {
		c.cancel()
	}
}

func (c *scalarCancelCounter) IntOneMinusFPow(T float64, b int) float64 {
	c.tick()
	return c.Model.IntOneMinusFPow(T, b)
}

func (c *scalarCancelCounter) IntUOneMinusFPow(T float64, b int) float64 {
	c.tick()
	return c.Model.IntUOneMinusFPow(T, b)
}

func (c *scalarCancelCounter) IntProdOneMinusF(T, shift float64) float64 {
	c.tick()
	return c.Model.IntProdOneMinusF(T, shift)
}

func (c *scalarCancelCounter) IntUProdOneMinusF(T, shift float64) float64 {
	c.tick()
	return c.Model.IntUProdOneMinusF(T, shift)
}

// TestRound0CancelScalarOnly: a model without kernels answers round 0
// row by row, so a cancel at its first integral call stops the search
// within one row's calls, 2·(ratios+1).
func TestRound0CancelScalarOnly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := &scalarCancelCounter{Model: scalarOnly{parityModel(t, 42, 0.1)}, cancelAt: 1, cancel: cancel}
	if _, _, err := OptimizeDelayedRatios(ctx, c, oracleRatios, 1); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if after, bound := c.calls.Load()-1, int64(2*(len(oracleRatios)+1)); after > bound {
		t.Fatalf("%d integral calls after the cancel, want <= %d", after, bound)
	}
}

// TestNParallelExpectedMatchesOracle pins the hoisted E[N‖] loop to
// the generic oracle expectDelayed at g = NParallelGivenLatency, bit
// for bit at 96 and 1024 cells: at every paper dataset's ten ratio
// optima, at 100 seeded random (t0, ratio) points per dataset, and at
// points where a cell midpoint falls exactly on the I0/I1 split.
func TestNParallelExpectedMatchesOracle(t *testing.T) {
	check := func(name string, m Model, p DelayedParams, cells int) {
		t.Helper()
		want := expectDelayed(m, p, cells, func(l float64) float64 { return NParallelGivenLatency(l, p) })
		if got := nParallelExpectedCells(m, p, cells); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s %+v cells %d: E[N‖] = %v, oracle %v", name, p, cells, got, want)
		}
	}
	cellCounts := []int{costScanCells, delayedExpectCells}
	points := 0
	for name, m := range paperModels(t) {
		ps, _, err := OptimizeDelayedRatios(context.Background(), m, oracleRatios, 2)
		if err != nil {
			t.Fatal(err)
		}
		ub := m.UpperBound()
		rng := rand.New(rand.NewSource(25))
		for k := 0; k < 100; k++ {
			t0 := ub*1e-3 + rng.Float64()*(ub/2-ub*1e-3)
			ratio := 1 + math.Max(rng.Float64(), 1e-3)
			ps = append(ps, DelayedParams{T0: t0, TInf: ratio * t0})
		}
		for _, p := range ps {
			for _, cells := range cellCounts {
				check(name, m, p, cells)
				points++
			}
		}
	}
	// Split edges: t∞ is chosen so that the midpoint l of cell i in
	// period j >= 2 equals the split (j-1)·t0 + t∞ exactly. The model's
	// one latency x lies in cell i's span past t0, before t∞, at q = 1/2:
	// every period's mass falls in its cell i. A point is kept only where
	// reading l on the I0 side instead changes the oracle's sum.
	rng := rand.New(rand.NewSource(25))
	edges := 0
	for tries := 0; edges < 20 && tries < 20000; tries++ {
		cells := cellCounts[tries%2]
		t0 := 50 + rng.Float64()*950
		h := t0 / float64(cells)
		fj := float64(2 + rng.Intn(3))
		l := fj*t0 + float64(1+rng.Intn(cells-1))*h - h/2
		tInf := l - (fj-1)*t0
		p := DelayedParams{T0: t0, TInf: tInf}
		if p.Validate() != nil || (fj-1)*t0+tInf != l {
			continue
		}
		m, err := NewEmpiricalModel(stats.MustECDF([]float64{tInf - h/4}), 0.5, 4*tInf)
		if err != nil {
			t.Fatal(err)
		}
		asI0 := func(l float64) float64 {
			if n := math.Floor(l / t0); n >= 1 && l == (n-1)*t0+tInf {
				return (t0 + (n-1)*tInf + 2*(l-n*t0)) / l
			}
			return NParallelGivenLatency(l, p)
		}
		right := expectDelayed(m, p, cells, func(l float64) float64 { return NParallelGivenLatency(l, p) })
		if expectDelayed(m, p, cells, asI0) == right {
			continue
		}
		check("split edge", m, p, cells)
		edges++
	}
	if edges < 20 {
		t.Fatalf("found only %d split-edge points", edges)
	}
	t.Logf("%d points and %d split edges bit-identical", points, edges)
}

// FuzzRound0Bounds checks round0Bounds on a random small step ECDF —
// real-valued or integer support — at a random ρ, t0 and ratio in
// (1, 2]: the walked EJ lies in [lo, hi] wherever the cell is valid.
func FuzzRound0Bounds(f *testing.F) {
	f.Add(int64(1), uint8(40), false, 0.1, 0.3, 0.5)
	f.Add(int64(2), uint8(12), true, 0.0, 0.9, 1.0)
	f.Add(int64(3), uint8(1), false, 0.5, 0.05, 0.01)
	f.Add(int64(4), uint8(63), true, 0.02, 1.2, 1e-7)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, integer bool, rho, t0f, ratio float64) {
		for _, v := range []float64{rho, t0f, ratio} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+int(n)%64)
		for i := range xs {
			if integer {
				xs[i] = float64(1 + rng.Intn(25))
			} else {
				xs[i] = 1e-3 + rng.Float64()*100
			}
		}
		e := stats.MustECDF(xs)
		m, err := NewEmpiricalModel(e, math.Mod(math.Abs(rho), 0.99), 2*e.Max())
		if err != nil {
			t.Skip()
		}
		t0 := 1e-3 + math.Mod(math.Abs(t0f), 2)*e.Max()
		r := 1 + math.Mod(math.Abs(ratio), 1)
		if r == 1 {
			r = 2
		}
		k := kernelsOf(m)
		lo, hi, ok := cellBounds(k, t0, r)
		if !ok {
			t.Skip()
		}
		if v := ejDelayedAt(k, r, t0); !(lo <= v && v <= hi) {
			t.Fatalf("support %v ρ %v t0 %v ratio %v: walked EJ %v outside [%v, %v]", xs, m.Rho(), t0, r, v, lo, hi)
		}
	})
}
