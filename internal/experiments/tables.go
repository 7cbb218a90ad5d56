package experiments

import (
	"context"
	"fmt"

	"gridstrat/internal/core"
	"gridstrat/internal/trace"
)

// Table1 reproduces the paper's Table 1: per-dataset mean and standard
// deviation of the raw latency R (below the 10⁴ s censoring bound),
// the censored-mean lower bound, and the single-resubmission EJ and σJ
// at the optimal timeout, with the variability reduction Δσ.
func Table1(c *Context) (*Table, error) {
	t := &Table{
		ID:      "table1",
		Title:   "Mean and standard deviation of latency (R) and latency including resubmissions (J)",
		Headers: []string{"week", "mean<10^4", "mean with 10^4", "EJ", "sigmaR<10^4", "sigmaJ", "d-sigma"},
	}
	for _, name := range c.DatasetOrder() {
		tr, err := c.Set.Get(name)
		if err != nil {
			return nil, err
		}
		st := tr.ComputeStats()
		cc, err := c.Cost(name)
		if err != nil {
			return nil, err
		}
		m, err := c.Model(name)
		if err != nil {
			return nil, err
		}
		sigmaJ := core.SigmaSingle(m, cc.RefTimeout)
		dSigma := (sigmaJ - st.StdBody) / st.StdBody
		t.AddRow(name, fmtS(st.MeanBody), fmtS(st.MeanCensored), fmtS(cc.RefEJ),
			fmtS(st.StdBody), fmtS(sigmaJ), fmtPct(dSigma))
	}
	t.Notes = append(t.Notes,
		"EJ is Eq. 1 at the optimal t-inf; d-sigma compares sigmaJ with sigmaR of non-outlier latencies")
	return t, nil
}

// Table2 reproduces Table 2: multiple submission on the reference
// dataset for b = 1..20 — optimal timeout, best EJ, σJ, and the EJ/b
// deltas against b=1 and against b-1.
func Table2(c *Context) (*Table, error) {
	m, err := c.Model(ReferenceDataset)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "table2",
		Title: "Multiple submission on " + ReferenceDataset + ": optimal timeout and expectation per collection size",
		Headers: []string{"b", "opt t-inf", "best EJ", "sigmaJ",
			"dEJ/(b=1)", "db/(b=1)", "dEJ/(b-1)", "db/(b-1)"},
	}
	var ej1 float64
	var prevEJ float64
	for b := 1; b <= 20; b++ {
		tInf, ev := core.OptimizeMultiple(m, b)
		row := []string{
			fmt.Sprintf("%d", b), fmtS(tInf), fmtS(ev.EJ), fmtS(ev.Sigma),
		}
		if b == 1 {
			ej1 = ev.EJ
			row = append(row, "", "", "", "")
		} else {
			row = append(row,
				fmtPct((ev.EJ-ej1)/ej1),
				fmt.Sprintf("%d%%", b*100),
				fmtPct((ev.EJ-prevEJ)/prevEJ),
				fmtPct(1.0/float64(b-1)))
		}
		prevEJ = ev.EJ
		t.AddRow(row...)
	}
	return t, nil
}

// Table3 reproduces Table 3: the delayed strategy on the reference
// dataset with the ratio t∞/t0 imposed — resulting N‖, optimal
// parameters, minimal EJ and the improvement over single resubmission.
func Table3(c *Context) (*Table, error) {
	m, err := c.Model(ReferenceDataset)
	if err != nil {
		return nil, err
	}
	cc, err := c.Cost(ReferenceDataset)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table3",
		Title:   fmt.Sprintf("Delayed resubmission on %s per imposed ratio (single resubmission EJ = %s)", ReferenceDataset, fmtS(cc.RefEJ)),
		Headers: []string{"t-inf/t0", "N//", "best t-inf", "best t0", "min EJ", "d(100%)"},
	}
	ps, evs, err := core.OptimizeDelayedRatiosCtx(context.Background(), m, table3Ratios, 1)
	if err != nil {
		return nil, err
	}
	for i, ratio := range table3Ratios {
		p, ev := ps[i], evs[i]
		t.AddRow(fmtF(ratio, 2), fmtF(ev.Parallel, 2), fmtS(p.TInf), fmtS(p.T0),
			fmtS(ev.EJ), fmtPct((ev.EJ-cc.RefEJ)/cc.RefEJ))
	}
	return t, nil
}

var table3Ratios = []float64{1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0}

// Table4 reproduces Table 4: Δcost of the delayed strategy per imposed
// ratio (left block) and of the multiple-submission strategy per b
// (right block), both on the reference dataset.
func Table4(c *Context) (*Table, error) {
	m, err := c.Model(ReferenceDataset)
	if err != nil {
		return nil, err
	}
	cc, err := c.Cost(ReferenceDataset)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table4",
		Title:   "Strategy cost on " + ReferenceDataset + ": delayed (per ratio) vs multiple (per b)",
		Headers: []string{"N// (delayed)", "t-inf/t0", "min EJ", "d-cost", "|", "N//=b", "min EJ", "d-cost"},
	}
	type multiRow struct {
		b     int
		ej    float64
		delta float64
	}
	multiBs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 40, 60, 80, 100}
	multi := make([]multiRow, 0, len(multiBs))
	for _, b := range multiBs {
		_, ev, delta := cc.DeltaMultiple(b)
		multi = append(multi, multiRow{b: b, ej: ev.EJ, delta: delta})
	}
	ratios := append([]float64{1.05}, table3Ratios...)
	_, evs, err := core.OptimizeDelayedRatiosCtx(context.Background(), m, ratios, 1)
	if err != nil {
		return nil, err
	}
	for i, ratio := range ratios {
		ev := evs[i]
		left := []string{fmtF(ev.Parallel, 2), fmtF(ratio, 2), fmtS(ev.EJ),
			fmtF(cc.Delta(ev.EJ, ev.Parallel), 2), "|"}
		if i < len(multi) {
			mr := multi[i]
			left = append(left, fmt.Sprintf("%d", mr.b), fmtS(mr.ej), fmtF(mr.delta, 1))
		} else {
			left = append(left, "", "", "")
		}
		t.AddRow(left...)
	}
	for i := len(ratios); i < len(multi); i++ {
		mr := multi[i]
		t.AddRow("", "", "", "", "|", fmt.Sprintf("%d", mr.b), fmtS(mr.ej), fmtF(mr.delta, 1))
	}
	t.Notes = append(t.Notes,
		"d-cost = N// * EJ(strategy) / EJ(single resubmission at optimum); values < 1 load the grid less than doing nothing clever")
	return t, nil
}

// Table5 reproduces Table 5: per-week Δcost-optimal delayed
// parameters, the resulting EJ, and the ±5 s stability probe for the
// weeks whose optimum beats 1.
func Table5(c *Context) (*Table, error) {
	t := &Table{
		ID:      "table5",
		Title:   "Minimal d-cost per period with optimal integer (t0, t-inf) and stability radius 5",
		Headers: []string{"week", "opt t0", "opt t-inf", "opt d-cost", "EJ", "max d-cost(r5)", "max d%"},
	}
	names := append([]string{}, trace.WeeklyNames()...)
	names = append(names, trace.AggregateName)
	for _, name := range names {
		res, err := c.CostOptimum(name)
		if err != nil {
			return nil, err
		}
		cc, err := c.Cost(name)
		if err != nil {
			return nil, err
		}
		row := []string{name, fmtS(res.Params.T0), fmtS(res.Params.TInf),
			fmtF(res.Delta, 3), fmtS(res.Eval.EJ)}
		if res.Delta < 1 {
			st := cc.CostStability(res.Params, 5)
			row = append(row, fmtF(st.MaxDelta, 3), fmtPct(st.MaxRelDiff))
		} else {
			row = append(row, "", "")
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"stability columns only probe optima below 1, matching the paper's Table 5")
	return t, nil
}

// Table6 reproduces Table 6: cross-week transfer of the optimal
// parameters — for every target week, Δcost and EJ obtained with each
// week's (and the pooled period's) optimal (t0, t∞), plus the maximal
// divergence and the divergence when reusing the previous week.
func Table6(c *Context) (*Table, error) {
	t := &Table{
		ID:      "table6",
		Title:   "Cross-week transfer of optimal (t0, t-inf): EJ and d-cost per parameter source",
		Headers: []string{"target week", "params from", "t0", "t-inf", "EJ", "d-cost", "max diff", "diff/prev"},
	}
	weeks := trace.WeeklyNames()
	sources := append([]string{}, weeks...)
	sources = append(sources, trace.AggregateName)

	// Precompute every source's optimal parameters.
	srcParams := make(map[string]core.DelayedParams)
	for _, s := range sources {
		res, err := c.CostOptimum(s)
		if err != nil {
			return nil, err
		}
		srcParams[s] = res.Params
	}

	for wi, target := range weeks {
		cc, err := c.Cost(target)
		if err != nil {
			return nil, err
		}
		own, err := c.CostOptimum(target)
		if err != nil {
			return nil, err
		}
		maxDiff := 0.0
		var prevDiff float64
		hasPrev := false
		type entry struct {
			src   string
			p     core.DelayedParams
			ej    float64
			delta float64
		}
		var entries []entry
		for _, src := range sources {
			p := srcParams[src]
			ev, delta, err := cc.DeltaDelayed(p)
			if err != nil {
				continue
			}
			entries = append(entries, entry{src, p, ev.EJ, delta})
			diff := (delta - own.Delta) / own.Delta
			if diff > maxDiff {
				maxDiff = diff
			}
			if wi > 0 && src == weeks[wi-1] {
				prevDiff = diff
				hasPrev = true
			}
		}
		for i, e := range entries {
			row := []string{"", e.src, fmtS(e.p.T0), fmtS(e.p.TInf), fmtS(e.ej), fmtF(e.delta, 3), "", ""}
			if i == 0 {
				row[0] = target
				row[6] = fmtPct(maxDiff)
				if hasPrev {
					row[7] = fmtPct(prevDiff)
				}
			}
			if e.src == target {
				row[1] = e.src + "*"
			}
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"* marks the target week's own optimum; max diff is the worst d-cost degradation across sources",
		"diff/prev reuses the previous week's parameters, the paper's practical deployment mode (section 7.2)")
	return t, nil
}

// sanity guard used by tests: all tables must carry at least this many
// rows to be meaningful reproductions.
var minRows = map[string]int{
	"table1": 13, "table2": 20, "table3": 10, "table4": 11, "table5": 12, "table6": 100,
}

func checkRows(t *Table) error {
	if want := minRows[t.ID]; len(t.Rows) < want {
		return fmt.Errorf("experiments: %s has %d rows, want >= %d", t.ID, len(t.Rows), want)
	}
	for _, r := range t.Rows {
		if len(r) != len(t.Headers) {
			return fmt.Errorf("experiments: %s row width %d != header width %d", t.ID, len(r), len(t.Headers))
		}
		for _, cell := range r {
			if cell == "NaN" || cell == "+Inf" || cell == "-Inf" {
				return fmt.Errorf("experiments: %s contains non-finite cell", t.ID)
			}
		}
	}
	return nil
}
