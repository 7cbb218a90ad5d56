package gridstrat

import (
	"math"
	"testing"

	"gridstrat/internal/core"
	"gridstrat/internal/stats"
)

// This suite pins the tiered-representation contract end to end: on
// every paper dataset, a Planner over the quantile-sketch backend must
// agree with the exact-ECDF Planner — same recommended strategy, same
// ranking order, and every objective within 1% relative — so demoting
// a model to the sketch tier never changes a planning decision, only
// its memory footprint.

// sketchTwin builds the sketch-backed twin of the dataset's exact
// model: same outlier ratio and timeout, the latency law summarized at
// the default compactor capacity.
func sketchTwin(t *testing.T, name string) (exact, sketched Model) {
	t.Helper()
	tr, err := SynthesizeDataset(name)
	if err != nil {
		t.Fatal(err)
	}
	em, err := ModelFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	sk := stats.SketchFromECDF(em.ECDF(), 0)
	sm, err := core.NewEmpiricalModel(sk.View(), tr.OutlierRatio(), tr.Timeout)
	if err != nil {
		t.Fatal(err)
	}
	return em, sm
}

// relDiff is |a-b| relative to the larger magnitude.
func relDiff(a, b float64) float64 {
	denom := math.Max(math.Abs(a), math.Abs(b))
	if denom == 0 {
		return 0
	}
	return math.Abs(a-b) / denom
}

// TestSketchPlannerParityAllDatasets: Recommend, Rank and Optimize
// agree between the exact and sketch backends on all 12 paper
// datasets.
func TestSketchPlannerParityAllDatasets(t *testing.T) {
	const tol = 0.01
	for _, spec := range PaperDatasets() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			exact, sketched := sketchTwin(t, spec.Name)
			pe, err := NewPlanner(exact)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := NewPlanner(sketched)
			if err != nil {
				t.Fatal(err)
			}

			// Recommend: same winning strategy, objective within 1%.
			re, err := pe.Recommend()
			if err != nil {
				t.Fatal(err)
			}
			rs, err := ps.Recommend()
			if err != nil {
				t.Fatal(err)
			}
			if re.Strategy != rs.Strategy {
				t.Fatalf("Recommend winner: exact %q, sketch %q", re.Strategy, rs.Strategy)
			}
			if d := relDiff(re.Eval.EJ, rs.Eval.EJ); d > tol {
				t.Fatalf("Recommend EJ: exact %v, sketch %v (rel %v)", re.Eval.EJ, rs.Eval.EJ, d)
			}

			// Rank: same order of strategy families, each EJ within 1%.
			qe, err := pe.Rank()
			if err != nil {
				t.Fatal(err)
			}
			qs, err := ps.Rank()
			if err != nil {
				t.Fatal(err)
			}
			if len(qe) != len(qs) {
				t.Fatalf("Rank lengths: exact %d, sketch %d", len(qe), len(qs))
			}
			for i := range qe {
				if qe[i].Strategy.Name() != qs[i].Strategy.Name() {
					t.Fatalf("Rank[%d]: exact %q, sketch %q", i, qe[i].Strategy.Name(), qs[i].Strategy.Name())
				}
				if d := relDiff(qe[i].Eval.EJ, qs[i].Eval.EJ); d > tol {
					t.Fatalf("Rank[%d] EJ: exact %v, sketch %v (rel %v)", i, qe[i].Eval.EJ, qs[i].Eval.EJ, d)
				}
			}

			// Optimize: each family's tuned objective within 1%.
			for _, s := range Strategies(2) {
				_, ee, err := pe.Optimize(s)
				if err != nil {
					t.Fatal(err)
				}
				_, es, err := ps.Optimize(s)
				if err != nil {
					t.Fatal(err)
				}
				if d := relDiff(ee.EJ, es.EJ); d > tol {
					t.Fatalf("Optimize(%v) EJ: exact %v, sketch %v (rel %v)", s.Name(), ee.EJ, es.EJ, d)
				}
			}
		})
	}
}

// TestSketchModelCrossEvaluation: a tuned strategy from one backend
// evaluates within 1% on the other — the sketch does not merely find a
// different optimum of a different objective, it tracks the same
// objective surface.
func TestSketchModelCrossEvaluation(t *testing.T) {
	exact, sketched := sketchTwin(t, "2006-IX")
	pe, err := NewPlanner(exact)
	if err != nil {
		t.Fatal(err)
	}
	tuned, ev, err := pe.Optimize(Multiple{B: 3})
	if err != nil {
		t.Fatal(err)
	}
	evOnSketch, err := tuned.Evaluate(sketched)
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(ev.EJ, evOnSketch.EJ); d > 0.01 {
		t.Fatalf("cross-evaluation EJ: exact %v, sketch %v (rel %v)", ev.EJ, evOnSketch.EJ, d)
	}
}

// TestSketchParityErrorBudget documents why the 1% tolerance holds:
// every dataset's sketch reports a rank-error bound far below the
// tolerance at the default capacity.
func TestSketchParityErrorBudget(t *testing.T) {
	for _, spec := range PaperDatasets() {
		tr, err := SynthesizeDataset(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		em, err := ModelFromTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		sk := stats.SketchFromECDF(em.ECDF(), 0)
		if eps := sk.ErrorBound(); eps >= 0.01 {
			t.Errorf("%s: sketch error bound %v >= 1%% tolerance", spec.Name, eps)
		}
		if sk.N() != em.ECDF().N() {
			t.Errorf("%s: sketch N %d != exact N %d", spec.Name, sk.N(), em.ECDF().N())
		}
	}
}
