package gridstrat

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestGWFFacadeRoundTrip(t *testing.T) {
	tr, err := SynthesizeDataset("2008-02")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTraceGWF(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceGWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() || got.Name != tr.Name {
		t.Fatalf("round trip lost data: %d/%d records", got.Len(), tr.Len())
	}
	// The latency model derived from both traces is identical.
	a, err := ModelFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ModelFromTrace(got)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{200, 500, 1500, 5000} {
		if math.Abs(a.Ftilde(x)-b.Ftilde(x)) > 1e-9 {
			t.Fatalf("F̃ differs at %v after GWF round trip", x)
		}
	}
}

func TestCompareDeadlineFacade(t *testing.T) {
	m := refModel(t)
	p, err := NewPlanner(m, WithDeadline(900), WithCollectionSize(3))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.CompareDeadline()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deadline != 900 {
		t.Fatalf("deadline %v", rep.Deadline)
	}
	if !(rep.Multiple.Probability > rep.Single.Probability) {
		t.Fatal("replication should raise the deadline probability")
	}
	// QuantileJ consistency on the exposed CDFs.
	cdf := MultipleCDF(m, 3, 600)
	x95 := QuantileJ(cdf, 0.95, 600)
	if cdf(x95) < 0.95-1e-9 {
		t.Fatalf("QuantileJ(0.95) = %v but CDF = %v", x95, cdf(x95))
	}
	if QuantileJ(cdf, 0, 600) != 0 || !math.IsInf(QuantileJ(cdf, 1, 600), 1) {
		t.Fatal("quantile limits wrong")
	}
}

func TestMakespanFacade(t *testing.T) {
	m := refModel(t)
	app := Application{Tasks: 200, WaveWidth: 50, Runtime: 60}
	p, err := NewPlanner(m)
	if err != nil {
		t.Fatal(err)
	}
	ests, err := p.CompareMakespan(app, Single{}, Multiple{B: 4}, Delayed{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 3 {
		t.Fatalf("%d estimates", len(ests))
	}
	if !(ests[1].Makespan < ests[0].Makespan) {
		t.Fatal("b=4 should beat single on makespan")
	}
	sizer, err := NewPlanner(m, WithDeadline(ests[1].Makespan*1.01))
	if err != nil {
		t.Fatal(err)
	}
	b, est, err := sizer.SmallestCollection(app, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b == 0 || b > 4 {
		t.Fatalf("sizing picked b=%d", b)
	}
	if est.Makespan <= 0 {
		t.Fatalf("estimate %v", est.Makespan)
	}
}

func TestBootstrapFacade(t *testing.T) {
	m := refModel(t)
	rng := newRand(17)
	ci, err := BootstrapSingleEJ(m, 500, 50, 0.9, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !(ci.Lo <= ci.Point && ci.Point <= ci.Hi) {
		t.Fatalf("bad CI %+v", ci)
	}
	ci2, err := BootstrapStatistic(m, func(bm Model) float64 {
		return EJMultiple(bm, 2, 500)
	}, 50, 0.9, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ci2.Resamples != 50 || ci2.Level != 0.9 {
		t.Fatalf("metadata lost: %+v", ci2)
	}
}

func TestStationarityFacade(t *testing.T) {
	tr, err := SynthesizeDataset("2006-IX")
	if err != nil {
		t.Fatal(err)
	}
	ws, err := WindowStats(tr, 2*3600)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) < 5 {
		t.Fatalf("%d windows", len(ws))
	}
	rep, err := AnalyzeStationarity(tr, 2*3600)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != len(ws) {
		t.Fatalf("window count mismatch %d vs %d", rep.Windows, len(ws))
	}
}
