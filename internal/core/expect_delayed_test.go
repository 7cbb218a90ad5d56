package core

import (
	"math"
	"testing"

	"gridstrat/internal/trace"
)

// expectDelayed returns E[g(J)] for the delayed strategy with `cells`
// cells per T0-period: the exact-mass Stieltjes sum of
// nParallelExpectedCells for any g, with the same tabulated survival
// factors, calling g at each cell midpoint. It is the oracle the
// hoisted production loop must equal bit for bit at
// g = NParallelGivenLatency, and the Stieltjes route the tests compare
// the closed-form EJ with.
func expectDelayed(m Model, p DelayedParams, cells int, g func(l float64) float64) float64 {
	if err := p.Validate(); err != nil {
		return math.NaN()
	}
	q := 1 - m.Ftilde(p.TInf)
	if q >= 1 {
		return math.NaN()
	}
	h := p.T0 / float64(cells)
	w := p.TInf - p.T0
	tables := make([]float64, 2*(cells+1))
	one := tables[:cells+1]  // one[i] = 1-F̃(i·h)
	both := tables[cells+1:] // both[i] = 1-F̃(i·h+T0), for i <= racing
	racing := 0              // cells 1..racing have i·h < w: both copies race
	for i := 1; i <= cells; i++ {
		u := float64(i) * h
		one[i] = 1 - m.Ftilde(u)
		if u < w {
			both[i] = 1 - m.Ftilde(u+p.T0)
			racing = i
		}
	}
	sum := 0.0
	prevG := 1.0
	for j := 0; ; j++ {
		base := float64(j) * p.T0
		var qPrev, qCur float64
		if j > 0 {
			qPrev, qCur = powFloorExp(q, float64(j-1)), powFloorExp(q, float64(j))
		}
		for i := 1; i <= cells; i++ {
			var gt float64
			switch {
			case j == 0:
				gt = one[i]
			case i <= racing:
				gt = qPrev * both[i] * one[i]
			default:
				gt = qCur * one[i]
			}
			t := base + float64(i)*h
			if mass := prevG - gt; mass > 0 {
				sum += mass * g(t-h/2)
			}
			prevG = gt
		}
		if prevG < 1e-12 || j > 10000 {
			break
		}
	}
	return sum
}

// expectDelayedPerCell is the reference E[g(J)] summation: the same
// exact-mass Stieltjes sum as expectDelayed, but with the survival
// function evaluated anew at every cell edge of every period
// (two F̃ calls per cell per period). expectDelayed tabulates the
// period-invariant factors instead; this oracle pins it to the
// direct evaluation.
func expectDelayedPerCell(m Model, p DelayedParams, cells int, g func(l float64) float64) float64 {
	if err := p.Validate(); err != nil {
		return math.NaN()
	}
	q := 1 - m.Ftilde(p.TInf)
	if q >= 1 {
		return math.NaN()
	}
	survival := func(t float64) float64 {
		jf := math.Floor(t / p.T0)
		if jf == 0 {
			return 1 - m.Ftilde(t)
		}
		u := t - jf*p.T0
		if u < p.TInf-p.T0 {
			return powFloorExp(q, jf-1) * (1 - m.Ftilde(u+p.T0)) * (1 - m.Ftilde(u))
		}
		return powFloorExp(q, jf) * (1 - m.Ftilde(u))
	}
	sum := 0.0
	prevG := 1.0
	h := p.T0 / float64(cells)
	for j := 0; ; j++ {
		base := float64(j) * p.T0
		for i := 1; i <= cells; i++ {
			t := base + float64(i)*h
			gt := survival(t)
			if mass := prevG - gt; mass > 0 {
				sum += mass * g(t-h/2)
			}
			prevG = gt
		}
		if prevG < 1e-12 || j > 10000 {
			break
		}
	}
	return sum
}

// oracleRatios is the t∞/t0 grid the Planner's Recommend sweeps.
var oracleRatios = []float64{1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0}

// compareToOracle checks the production E[N‖] loop against the
// tabulated oracle expectDelayed at g = NParallelGivenLatency (bit for
// bit) and the oracle against the per-cell oracle (within 1e-12
// relative), and reports whether the last two are bit-identical.
func compareToOracle(t *testing.T, name string, m Model, p DelayedParams, cells int) (identical bool) {
	t.Helper()
	g := func(l float64) float64 { return NParallelGivenLatency(l, p) }
	got := expectDelayed(m, p, cells, g)
	if prod := nParallelExpectedCells(m, p, cells); math.Float64bits(prod) != math.Float64bits(got) {
		t.Errorf("%s t0=%v t∞=%v cells=%d: production E[N‖] = %v, oracle %v", name, p.T0, p.TInf, cells, prod, got)
	}
	want := expectDelayedPerCell(m, p, cells, g)
	if got == want {
		return true
	}
	if math.IsNaN(got) && math.IsNaN(want) {
		return true
	}
	if rel := math.Abs(got-want) / math.Abs(want); !(rel <= 1e-12) {
		t.Errorf("%s t0=%v t∞=%v cells=%d: E[N‖] = %v, oracle %v (rel %.3g)",
			name, p.T0, p.TInf, cells, got, want, rel)
	}
	return false
}

// TestExpectDelayedMatchesPerCellOracle pins the tabulated E[N‖]
// summation to the per-cell oracle, and the production loop to the
// tabulated one bit for bit, on every paper dataset across the
// Recommend ratio grid and the (0, ub/2] t0 bracket, at the final
// (1024) and scan (96) resolutions, plus a parametric model and a q
// close to 1 that runs thousands of periods.
func TestExpectDelayedMatchesPerCellOracle(t *testing.T) {
	const t0Points = 40
	specs := trace.PaperDatasets
	if testing.Short() {
		// The oracle's per-cell cost dominates the race build (the
		// loop is sequential, so -race adds no coverage); three
		// datasets keep the pinning meaningful there.
		specs = specs[:3]
	}
	total, same := 0, 0
	for _, spec := range specs {
		tr, err := trace.Synthesize(spec)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ModelFromTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		ub := m.UpperBound()
		for _, ratio := range oracleRatios {
			for k := 1; k <= t0Points; k++ {
				t0 := ub / 2 * float64(k) / t0Points
				p := DelayedParams{T0: t0, TInf: ratio * t0}
				for _, cells := range []int{delayedExpectCells, costScanCells} {
					total++
					if compareToOracle(t, spec.Name, m, p, cells) {
						same++
					}
				}
			}
		}
	}

	par, err := NewParametricModel(mustShift(t, 150), 0.05, 10000)
	if err != nil {
		t.Fatal(err)
	}
	// ρ = 0.995 leaves q ≥ 0.995, so the tail needs thousands of
	// periods to fall below 1e-12.
	slow, err := NewParametricModel(mustShift(t, 40), 0.995, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		m      Model
		ratios []float64
		t0s    []float64
	}{
		{"shiftedExp", par, oracleRatios, []float64{60, 150, 200, 420, 1000}},
		{"shiftedExp ρ=0.995", slow, []float64{1.1, 1.5, 2.0}, []float64{200, 1000}},
	} {
		for _, ratio := range c.ratios {
			for _, t0 := range c.t0s {
				p := DelayedParams{T0: t0, TInf: ratio * t0}
				for _, cells := range []int{delayedExpectCells, costScanCells} {
					total++
					if compareToOracle(t, c.name, c.m, p, cells) {
						same++
					}
				}
			}
		}
	}
	t.Logf("%d of %d E[N‖] values bit-identical to the per-cell oracle", same, total)
}

// ftildeCounter counts base F̃ evaluations.
type ftildeCounter struct {
	Model
	n int
}

func (c *ftildeCounter) Ftilde(t float64) float64 {
	c.n++
	return c.Model.Ftilde(t)
}

// TestNParallelExpectedFtildeCallsBounded: a model without the
// ascending extension (here a parametric one) makes at most 2·cells+1
// F̃ calls per E[N‖] evaluation, whatever the number of periods the
// series runs — the per-cell oracle needs two per cell per period. An
// empirical model builds both survival tables in one ascending sweep,
// bit for bit the per-point values, and calls F̃ once, for q.
func TestNParallelExpectedFtildeCallsBounded(t *testing.T) {
	m, err := NewParametricModel(mustShift(t, 40), 0.995, 10000)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 2*delayedExpectCells + 1
	for _, p := range []DelayedParams{{T0: 300, TInf: 450}, {T0: 60, TInf: 120}, {T0: 1000, TInf: 1100}} {
		c := &ftildeCounter{Model: m}
		NParallelExpected(c, p)
		oracle := &ftildeCounter{Model: m}
		expectDelayedPerCell(oracle, p, delayedExpectCells, func(l float64) float64 {
			return NParallelGivenLatency(l, p)
		})
		if c.n > bound {
			t.Errorf("%+v: %d F̃ calls, want <= %d", p, c.n, bound)
		}
		t.Logf("%+v: %d F̃ calls (per-cell oracle: %d)", p, c.n, oracle.n)
	}
	em := parityModel(t, 7, 0.12)
	for _, p := range []DelayedParams{{T0: 300, TInf: 450}, {T0: 60, TInf: 120}, {T0: 1000, TInf: 2000}} {
		c := &sweepCounter{ftildeCounter: ftildeCounter{Model: em}, m: em}
		got := NParallelExpected(c, p)
		if want := NParallelExpected(&ftildeCounter{Model: em}, p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%+v: swept E[N‖] %v, per-point %v", p, got, want)
		}
		if c.n != 1 || c.sweeps != 1 {
			t.Fatalf("%+v: %d F̃ calls and %d sweeps, want 1 and 1", p, c.n, c.sweeps)
		}
	}
}

// sweepCounter is ftildeCounter with the ascending extension, counting
// its sweeps.
type sweepCounter struct {
	ftildeCounter
	m      *EmpiricalModel
	sweeps int
}

func (c *sweepCounter) FtildeAscending(ts, out []float64) {
	c.sweeps++
	c.m.FtildeAscending(ts, out)
}
