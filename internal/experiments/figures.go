package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"gridstrat/internal/core"
)

// Figure1 reproduces Figure 1: the cumulative density FR of
// non-outlier latencies and the cumulative histogram F̃R = (1-ρ)FR of
// all submissions, showing the ρ gap at the top.
func Figure1(c *Context) (*Figure, error) {
	m, err := c.Model(ReferenceDataset)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     "figure1",
		Title:  "Cumulative density of latency on " + ReferenceDataset,
		XLabel: "seconds",
		YLabel: "cumulative density",
	}
	e := m.ECDF()
	hi := e.Quantile(0.999)
	var fr, ftilde []Point
	for i := 0; i <= 400; i++ {
		x := hi * float64(i) / 400
		fr = append(fr, Point{X: x, Y: e.Eval(x)})
		ftilde = append(ftilde, Point{X: x, Y: m.Ftilde(x)})
	}
	f.AddCurve("FR", fr)
	f.AddCurve("FR-tilde = (1-rho)FR", ftilde)
	f.Notes = append(f.Notes, fmt.Sprintf("rho = %.3f (outlier mass visible as the asymptotic gap)", m.Rho()))
	return f, nil
}

// Figure2 reproduces Figure 2: EJ(t∞) for collection sizes b = 1..10
// on the reference dataset.
func Figure2(c *Context) (*Figure, error) {
	m, err := c.Model(ReferenceDataset)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     "figure2",
		Title:  "Expectation of execution time per collection size on " + ReferenceDataset,
		XLabel: "timeout value (s)",
		YLabel: "EJ (s)",
	}
	for b := 1; b <= 10; b++ {
		ts, ejs := core.MultipleCurve(m, b, 2000, 200)
		pts := make([]Point, len(ts))
		for i := range ts {
			y := ejs[i]
			if math.IsInf(y, 1) {
				y = math.NaN() // gnuplot-friendly gap
			}
			pts[i] = Point{X: ts[i], Y: y}
		}
		f.AddCurve(fmt.Sprintf("b=%d", b), pts)
	}
	return f, nil
}

// Figure3 reproduces Figure 3: the optimal EJ (top panel) and its σJ
// (bottom panel) versus the number of parallel jobs b, one curve per
// dataset. The two panels are emitted as two curve groups with
// suffixed labels.
func Figure3(c *Context) (*Figure, error) {
	f := &Figure{
		ID:     "figure3",
		Title:  "Minimal EJ and associated sigmaJ vs number of parallel jobs",
		XLabel: "number of jobs in parallel (b)",
		YLabel: "seconds",
	}
	for _, name := range c.DatasetOrder() {
		m, err := c.Model(name)
		if err != nil {
			return nil, err
		}
		var ej, sig []Point
		for b := 1; b <= 10; b++ {
			_, ev := core.OptimizeMultiple(m, b)
			ej = append(ej, Point{X: float64(b), Y: ev.EJ})
			sig = append(sig, Point{X: float64(b), Y: ev.Sigma})
		}
		f.AddCurve("EJ "+name, ej)
		f.AddCurve("sigmaJ "+name, sig)
	}
	return f, nil
}

// Figure4 reproduces Figure 4 as data: the deterministic timeline of
// the delayed strategy (submission and cancellation instants of the
// first copies) plus one simulated realization, which is the paper's
// illustration of the I0/I1 interval structure.
func Figure4(c *Context) (*Table, error) {
	m, err := c.Model(ReferenceDataset)
	if err != nil {
		return nil, err
	}
	p, _ := core.OptimizeDelayed(m)
	t := &Table{
		ID: "figure4",
		Title: fmt.Sprintf("Delayed strategy timeline at t0=%s t-inf=%s (I0 = two copies racing, I1 = one copy)",
			fmtS(p.T0), fmtS(p.TInf)),
		Headers: []string{"copy", "submitted", "canceled at", "I0 with next", "I1 alone"},
	}
	for k := 0; k < 5; k++ {
		sub := float64(k) * p.T0
		t.AddRow(
			fmt.Sprintf("%d", k+1),
			fmtS(sub),
			fmtS(sub+p.TInf),
			fmt.Sprintf("[%s, %s]", fmtS(sub+p.T0), fmtS(sub+p.TInf)),
			fmt.Sprintf("[%s, %s]", fmtS(sub+p.TInf), fmtS(sub+2*p.T0)),
		)
	}
	rng := rand.New(rand.NewSource(4))
	sim, err := core.SimulateDelayed(m, p, 1, rng)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"one sampled realization: J = %s after %.0f submissions", fmtS(sim.EJ), sim.MeanSubmissions))
	return t, nil
}

// Figure5 reproduces Figure 5: the EJ(t0, t∞) surface of the delayed
// strategy on the reference dataset. Curves are constant-t0 slices;
// infeasible points are omitted.
func Figure5(c *Context) (*Figure, error) {
	m, err := c.Model(ReferenceDataset)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     "figure5",
		Title:  "EJ surface of the delayed strategy on " + ReferenceDataset,
		XLabel: "t-inf (s); one curve per t0",
		YLabel: "EJ (s)",
	}
	for t0 := 50.0; t0 <= 700; t0 += 50 {
		var pts []Point
		for tInf := t0 + 5; tInf <= 2*t0 && tInf <= 700; tInf += 5 {
			ej := core.EJDelayed(m, core.DelayedParams{T0: t0, TInf: tInf})
			if !math.IsInf(ej, 1) {
				pts = append(pts, Point{X: tInf, Y: ej})
			}
		}
		if len(pts) > 0 {
			f.AddCurve(fmt.Sprintf("t0=%.0f", t0), pts)
		}
	}
	p, ev := core.OptimizeDelayed(m)
	f.Notes = append(f.Notes, fmt.Sprintf(
		"surface minimum: EJ = %s at t0 = %s, t-inf = %s", fmtS(ev.EJ), fmtS(p.T0), fmtS(p.TInf)))
	return f, nil
}

// Figure6 reproduces Figure 6: minimal EJ versus the mean number of
// parallel copies, delayed strategy (ratio sweep) against multiple
// submission (b sweep).
func Figure6(c *Context) (*Figure, error) {
	m, err := c.Model(ReferenceDataset)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     "figure6",
		Title:  "Minimal EJ vs mean number of parallel copies on " + ReferenceDataset,
		XLabel: "nb. of jobs in parallel",
		YLabel: "minimal EJ (s)",
	}
	_, evs, err := core.OptimizeDelayedRatiosCtx(context.Background(), m, figureRatioSweep, 1)
	if err != nil {
		return nil, err
	}
	var delayed []Point
	for _, ev := range evs {
		delayed = append(delayed, Point{X: ev.Parallel, Y: ev.EJ})
	}
	f.AddCurve("delayed submission strategy", delayed)
	var multiple []Point
	for b := 1; b <= 5; b++ {
		_, ev := core.OptimizeMultiple(m, b)
		multiple = append(multiple, Point{X: float64(b), Y: ev.EJ})
	}
	f.AddCurve("multiple submissions strategy", multiple)
	return f, nil
}

var figureRatioSweep = []float64{1.02, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3, 1.35, 1.4, 1.45, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0}

// Figure7 reproduces Figure 7's message quantitatively: multiple
// submission can lower total grid occupancy when its time gain exceeds
// its copy count. The figure compares jobs-in-system over one
// single-resubmission expectation window.
func Figure7(c *Context) (*Table, error) {
	cc, err := c.Cost(ReferenceDataset)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "figure7",
		Title:   "Grid occupancy over one single-resubmission window T = EJ(b=1)",
		Headers: []string{"strategy", "copies", "busy fraction of T", "avg jobs on [0,T]"},
	}
	t.AddRow("single resubmission", "1", "100%", fmtF(1, 2))
	for _, b := range []int{2, 4} {
		_, ev, _ := cc.DeltaMultiple(b)
		frac := ev.EJ / cc.RefEJ
		t.AddRow(fmt.Sprintf("multiple (b=%d)", b), fmt.Sprintf("%d", b),
			fmt.Sprintf("%.1f%%", frac*100), fmtF(float64(b)*frac, 2))
	}
	t.Notes = append(t.Notes,
		"avg jobs below 1 means the speed-up outweighs the redundancy (the paper's T/4 vs T/2 illustration)")
	return t, nil
}

// Figure8 reproduces Figure 8: Δcost versus the mean number of
// parallel copies for both strategies.
func Figure8(c *Context) (*Figure, error) {
	m, err := c.Model(ReferenceDataset)
	if err != nil {
		return nil, err
	}
	cc, err := c.Cost(ReferenceDataset)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     "figure8",
		Title:  "d-cost vs mean number of parallel copies on " + ReferenceDataset,
		XLabel: "nb. of jobs in parallel",
		YLabel: "d-cost",
	}
	_, evs, err := core.OptimizeDelayedRatiosCtx(context.Background(), m, figureRatioSweep, 1)
	if err != nil {
		return nil, err
	}
	var delayed []Point
	for _, ev := range evs {
		delayed = append(delayed, Point{X: ev.Parallel, Y: cc.Delta(ev.EJ, ev.Parallel)})
	}
	f.AddCurve("delayed submission strategy", delayed)
	var multiple []Point
	for b := 1; b <= 5; b++ {
		_, ev, delta := cc.DeltaMultiple(b)
		_ = ev
		multiple = append(multiple, Point{X: float64(b), Y: delta})
	}
	f.AddCurve("multiple submissions strategy", multiple)
	res := cc.OptimizeDelayedCost()
	f.Notes = append(f.Notes, fmt.Sprintf(
		"global d-cost minimum %.3f at t0=%s t-inf=%s", res.Delta, fmtS(res.Params.T0), fmtS(res.Params.TInf)))
	return f, nil
}
