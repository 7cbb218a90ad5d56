package server

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"gridstrat"
	"gridstrat/internal/stats"
	"gridstrat/internal/trace"
)

// seedTrace builds a deterministic in-memory trace: n completed probes
// spaced spacing seconds apart plus a few outliers at the tail.
func seedTrace(name string, n int, spacing float64, outliers int) *trace.Trace {
	rng := rand.New(rand.NewSource(7))
	tr := &trace.Trace{Name: name, Timeout: trace.DefaultTimeout}
	id := 0
	for i := 0; i < n; i++ {
		tr.Records = append(tr.Records, trace.ProbeRecord{
			ID: id, Submit: float64(i) * spacing, Latency: 100 * (0.5 + rng.Float64()), Status: trace.StatusCompleted,
		})
		id++
	}
	for i := 0; i < outliers; i++ {
		tr.Records = append(tr.Records, trace.ProbeRecord{
			ID: id, Submit: float64(n+i) * spacing, Latency: tr.Timeout, Status: trace.StatusOutlier,
		})
		id++
	}
	return tr
}

// legacyEntry replays the pre-incremental write path — copy every
// window record, re-stamp, LastWindow re-scan, full model rebuild per
// batch — exactly as Entry.Observe implemented it before the rolling-
// buffer refactor. It is the ground truth of the equivalence test and
// the baseline of the ingest benchmarks.
type legacyEntry struct {
	win    *trace.Trace
	width  float64
	nextID int
}

func newLegacyEntry(tr *trace.Trace, width float64) (*legacyEntry, error) {
	windowed, err := trace.LastWindow(tr, width)
	if err != nil {
		return nil, err
	}
	if _, err := gridstrat.ModelFromTrace(windowed); err != nil {
		return nil, err
	}
	maxID := 0
	for _, rec := range tr.Records {
		if rec.ID >= maxID {
			maxID = rec.ID + 1
		}
	}
	return &legacyEntry{win: windowed, width: width, nextID: maxID}, nil
}

func (l *legacyEntry) observe(recs []trace.ProbeRecord, start *float64, spacing float64) (*gridstrat.EmpiricalModel, error) {
	if spacing <= 0 {
		spacing = 1
	}
	cursor := 0.0
	if start != nil {
		cursor = *start
	} else {
		for _, r := range l.win.Records {
			if s := r.Submit + spacing; s > cursor {
				cursor = s
			}
		}
	}
	combined := &trace.Trace{
		Name:    l.win.Name,
		Timeout: l.win.Timeout,
		Records: append([]trace.ProbeRecord(nil), l.win.Records...),
	}
	id := l.nextID
	for _, r := range recs {
		r.ID = id
		r.Submit = cursor
		id++
		cursor += spacing
		combined.Records = append(combined.Records, r)
	}
	if err := combined.Validate(); err != nil {
		return nil, err
	}
	windowed, err := trace.LastWindow(combined, l.width)
	if err != nil {
		return nil, err
	}
	em, err := gridstrat.ModelFromTrace(windowed)
	if err != nil {
		return nil, err // all-or-nothing: window unchanged
	}
	// The historical newModelState also wrapped a memoizing Planner
	// and recomputed the window summary on every batch; keep both so
	// the replica stays a faithful baseline for the ingest benchmarks.
	if _, err := gridstrat.NewPlanner(em); err != nil {
		return nil, err
	}
	_ = windowed.ComputeStats()
	l.nextID = id
	l.win = windowed
	return em, nil
}

// ecdfBitEqual compares support, cumulative probabilities and sample
// size bit for bit.
func ecdfBitEqual(a, b *stats.ECDF) bool {
	as, bs := a.Support(), b.Support()
	if a.N() != b.N() || len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] || a.Eval(as[i]) != b.Eval(bs[i]) {
			return false
		}
	}
	return true
}

// seededOutputs answers the acceptance queries on a model: a seeded
// Monte Carlo replay and the analytic recommendation.
func seededOutputs(t *testing.T, m gridstrat.Model) (gridstrat.SimResult, gridstrat.Recommendation) {
	t.Helper()
	p, err := gridstrat.NewPlanner(m, gridstrat.WithSeed(99), gridstrat.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := p.Simulate(gridstrat.Multiple{B: 3, TInf: 600}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	return sim, rec
}

// TestIncrementalMatchesLegacyEndToEnd is the acceptance-criteria
// equivalence: for random observation-batch sequences, the synchronous
// incremental path tracks the legacy full-rebuild path batch by batch
// — same accept/reject decisions, bit-identical ECDFs — and the async
// path converges to the same ModelState once its queue drains, with
// identical seeded simulate and recommend outputs.
func TestIncrementalMatchesLegacyEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 4; trial++ {
		width := []float64{250, 900, 1e8}[trial%3]
		seed := seedTrace("eq", 40, 5, 3)

		legacy, err := newLegacyEntry(seed, width)
		if err != nil {
			t.Fatal(err)
		}
		syncE, err := newEntry("eq", "test", width, seed, 0, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		asyncE, err := newEntry("eq", "test", width, seed, time.Hour, 1<<20, false)
		if err != nil {
			t.Fatal(err)
		}

		var lastLegacy *gridstrat.EmpiricalModel
		for step := 0; step < 30; step++ {
			var batch []trace.ProbeRecord
			k := 1 + rng.Intn(6)
			for i := 0; i < k; i++ {
				st, lat := trace.StatusCompleted, rng.Float64()*800
				if rng.Intn(8) == 0 {
					st, lat = trace.StatusOutlier, trace.DefaultTimeout
				}
				batch = append(batch, trace.ProbeRecord{Latency: lat, Status: st})
			}
			var start *float64
			if rng.Intn(4) == 0 {
				s := float64(rng.Intn(3000))
				start = &s
			}
			spacing := []float64{0, 1, 7}[rng.Intn(3)]
			if rng.Intn(10) == 0 {
				// Wipe attempt: all-outlier batch far in the future. Both
				// paths must reject it identically (all-or-nothing).
				batch = batch[:0]
				for i := 0; i < 3; i++ {
					batch = append(batch, trace.ProbeRecord{Latency: trace.DefaultTimeout, Status: trace.StatusOutlier})
				}
				s := 1e9
				start = &s
			}

			em, legacyErr := legacy.observe(batch, start, spacing)
			_, syncErr := syncE.Observe(batch, start, spacing)
			if (legacyErr == nil) != (syncErr == nil) {
				t.Fatalf("trial %d step %d: accept/reject diverged: legacy %v, sync %v", trial, step, legacyErr, syncErr)
			}
			if legacyErr != nil {
				continue
			}
			lastLegacy = em
			// The async entry receives exactly the accepted sequence.
			if _, err := asyncE.Observe(batch, start, spacing); err != nil {
				t.Fatalf("trial %d step %d: async ack: %v", trial, step, err)
			}

			st := syncE.State()
			if len(st.Trace.Records) != len(legacy.win.Records) {
				t.Fatalf("trial %d step %d: window sizes diverged: %d vs %d",
					trial, step, len(st.Trace.Records), len(legacy.win.Records))
			}
			if !ecdfBitEqual(st.ecdf, em.ECDF()) {
				t.Fatalf("trial %d step %d: sync ECDF diverged from legacy", trial, step)
			}
			if st.Model.Rho() != em.Rho() {
				t.Fatalf("trial %d step %d: rho diverged: %v vs %v", trial, step, st.Model.Rho(), em.Rho())
			}
		}
		if lastLegacy == nil {
			t.Fatalf("trial %d: no batch accepted", trial)
		}

		// Drain the async queue; all three paths must now agree.
		asyncState, _, err := asyncE.Flush()
		if err != nil {
			t.Fatalf("trial %d: flush: %v", trial, err)
		}
		syncState := syncE.State()
		if !ecdfBitEqual(asyncState.ecdf, syncState.ecdf) || !ecdfBitEqual(asyncState.ecdf, lastLegacy.ECDF()) {
			t.Fatalf("trial %d: drained async ECDF diverged", trial)
		}
		simL, recL := seededOutputs(t, lastLegacy)
		simS, recS := seededOutputs(t, syncState.Model)
		simA, recA := seededOutputs(t, asyncState.Model)
		if simL != simS || simL != simA {
			t.Fatalf("trial %d: seeded simulate diverged:\nlegacy %+v\nsync   %+v\nasync  %+v", trial, simL, simS, simA)
		}
		if recL.AsStrategy() != recS.AsStrategy() || recL.AsStrategy() != recA.AsStrategy() ||
			recL.Eval != recS.Eval || recL.Eval != recA.Eval {
			t.Fatalf("trial %d: recommendation diverged", trial)
		}
	}
}

// TestObserveCursorState pins the satellite fix: the default submit
// cursor is carried in entry state (not recomputed by scanning the
// window) and survives trims, explicit starts and the ceiling
// re-base.
func TestObserveCursorState(t *testing.T) {
	seed := seedTrace("cur", 10, 10, 0) // submits 0..90
	e, err := newEntry("cur", "test", 400, seed, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	maxSubmit := func(st *ModelState) float64 {
		m := math.Inf(-1)
		for _, r := range st.Trace.Records {
			if r.Submit > m {
				m = r.Submit
			}
		}
		return m
	}

	// Default stamping continues right after the newest record.
	res, err := e.Observe([]trace.ProbeRecord{{Latency: 50, Status: trace.StatusCompleted}}, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxSubmit(res.State); got != 95 {
		t.Fatalf("default cursor stamped %v, want 95", got)
	}

	// An explicit start in the past does not move the cursor backwards:
	// the next default batch still stamps after the overall maximum.
	past := 40.0
	if _, err := e.Observe([]trace.ProbeRecord{{Latency: 51, Status: trace.StatusCompleted}}, &past, 5); err != nil {
		t.Fatal(err)
	}
	res, err = e.Observe([]trace.ProbeRecord{{Latency: 52, Status: trace.StatusCompleted}}, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxSubmit(res.State); got != 100 {
		t.Fatalf("cursor after past-start batch stamped %v, want 100", got)
	}

	// A far-future explicit start trims the whole old regime; the
	// cursor survives the trim and keeps advancing from the new max.
	future := 5000.0
	if _, err := e.Observe([]trace.ProbeRecord{{Latency: 53, Status: trace.StatusCompleted}}, &future, 5); err != nil {
		t.Fatal(err)
	}
	res, err = e.Observe([]trace.ProbeRecord{{Latency: 54, Status: trace.StatusCompleted}}, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxSubmit(res.State); got != 5003 {
		t.Fatalf("cursor after trim stamped %v, want 5003", got)
	}
	if got := len(res.State.Trace.Records); got != 2 {
		t.Fatalf("window holds %d records after the regime jump, want 2", got)
	}

	// The ceiling re-base rebuilds the cursor onto the shifted window
	// and ingestion keeps stamping monotonically afterwards.
	nearCeiling := 9.9999999e12
	if _, err := e.Observe([]trace.ProbeRecord{{Latency: 55, Status: trace.StatusCompleted}}, &nearCeiling, 1); err != nil {
		t.Fatal(err)
	}
	res, err = e.Observe([]trace.ProbeRecord{{Latency: 56, Status: trace.StatusCompleted}}, nil, maxSpacing)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxSubmit(res.State); got > 1e9 {
		t.Fatalf("window not re-based: max submit %g", got)
	}
	res, err = e.Observe([]trace.ProbeRecord{{Latency: 57, Status: trace.StatusCompleted}}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, prev := maxSubmit(res.State), res.State.Trace.Records[len(res.State.Trace.Records)-2].Submit; got != prev+2 {
		t.Fatalf("cursor lost across re-base: max %v, predecessor %v", got, prev)
	}
}

// TestAsyncIngestLifecycle pins the decoupled mode end to end:
// immediate acks with pending counts, one coalesced rebuild per
// drain, warm swaps, counters, and the sync=true escape hatch.
func TestAsyncIngestLifecycle(t *testing.T) {
	s := MustNew(Config{RebuildInterval: time.Hour}) // worker never fires on its own
	if err := s.Preload("2006-IX"); err != nil {
		t.Fatal(err)
	}
	e, err := s.Registry().Get("2006-IX")
	if err != nil {
		t.Fatal(err)
	}
	v1 := e.State().Version

	// Three acks queue without a rebuild.
	total := 0
	for i := 0; i < 3; i++ {
		res, err := e.Observe([]trace.ProbeRecord{
			{Latency: 80 + float64(i), Status: trace.StatusCompleted},
			{Latency: 90, Status: trace.StatusCompleted},
		}, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Appended
		if res.State.Version != v1 {
			t.Fatalf("ack %d rebuilt eagerly (version %d)", i, res.State.Version)
		}
		if res.Pending != total {
			t.Fatalf("ack %d pending %d, want %d", i, res.Pending, total)
		}
	}
	if got := e.Pending(); got != 6 {
		t.Fatalf("pending %d, want 6", got)
	}

	// Flush folds all three batches into one rebuild.
	st, _, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != v1+1 {
		t.Fatalf("drained version %d, want %d", st.Version, v1+1)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending %d after flush", e.Pending())
	}
	if got := e.rebuilds.Load(); got != 1 {
		t.Fatalf("rebuilds %d, want 1", got)
	}
	if got := e.coalesced.Load(); got != 2 {
		t.Fatalf("coalesced %d, want 2 (3 batches, 1 rebuild)", got)
	}

	// /v1/stats surfaces the pipeline counters.
	var total2 ShardStats
	for _, sh := range s.Registry().Stats() {
		total2.Rebuilds += sh.Rebuilds
		total2.CoalescedBatches += sh.CoalescedBatches
		total2.QueuedRecords += sh.QueuedRecords
	}
	if total2.Rebuilds != 1 || total2.CoalescedBatches != 2 || total2.QueuedRecords != 0 {
		t.Fatalf("stats counters %+v", total2)
	}

	// A short interval drains on its own: bounded staleness.
	s2 := MustNew(Config{RebuildInterval: 2 * time.Millisecond})
	if err := s2.Preload("2006-IX"); err != nil {
		t.Fatal(err)
	}
	e2, err := s2.Registry().Get("2006-IX")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Observe([]trace.ProbeRecord{{Latency: 70, Status: trace.StatusCompleted}}, nil, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e2.Pending() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("async worker never drained the queue")
		}
		time.Sleep(time.Millisecond)
	}
	if e2.State().Version <= 1 {
		t.Fatalf("worker drained without a rebuild (version %d)", e2.State().Version)
	}
}

// TestObserveSyncFlagOverHTTP pins the handler's sync escape hatch on
// an async server: the response reflects the drained state.
func TestObserveSyncFlagOverHTTP(t *testing.T) {
	s, _, c := newTestServerCfg(t, Config{RebuildInterval: time.Hour})
	ctx := context.Background()
	mustCreateUpload(t, c, "m", 1e9)

	// Plain ack: pending, stale version.
	res, err := c.Observe(ctx, "m", ObserveRequest{Latencies: []float64{50, 60}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || res.Pending != 2 {
		t.Fatalf("plain async ack: %+v", res)
	}
	// Sync ack: drained, fresh version, window grown by both batches.
	res, err = c.Observe(ctx, "m", ObserveRequest{Latencies: []float64{70}, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || res.Pending != 0 {
		t.Fatalf("sync ack: %+v", res)
	}
	if res.WindowRecords != 126+3 {
		t.Fatalf("window %d records, want %d", res.WindowRecords, 126+3)
	}
	// The pipeline counters surface through the HTTP totals: one
	// rebuild covering two batches.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Totals.Rebuilds != 1 || st.Totals.CoalescedBatches != 1 || st.Totals.QueuedRecords != 0 {
		t.Fatalf("HTTP stats totals %+v", st.Totals)
	}
	_ = s
}

// TestObserveSyncDrainFailureAnswers200 pins the acknowledged-batch
// contract on an async server: a sync request whose drain leaves the
// window degenerate must NOT answer non-2xx (the records were
// acknowledged — a retry would double-ingest them); the unchanged
// version and the rebuild_failures counter carry the failure.
func TestObserveSyncDrainFailureAnswers200(t *testing.T) {
	s, _, c := newTestServerCfg(t, Config{RebuildInterval: time.Hour})
	ctx := context.Background()
	tr := seedTrace("deg", 10, 5, 0)
	if _, err := s.Registry().Put("deg", "test", 100, tr); err != nil {
		t.Fatal(err)
	}
	start := 1e6
	res, err := c.Observe(ctx, "deg", ObserveRequest{Outliers: 2, StartS: &start, Sync: true})
	if err != nil {
		t.Fatalf("sync drain of a degenerate window must still answer 200, got %v", err)
	}
	if res.Version != 1 || res.Pending != 0 || res.Appended != 2 {
		t.Fatalf("degenerate sync ack: %+v", res)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Totals.RebuildFailures != 1 {
		t.Fatalf("rebuild_failures %d, want 1", st.Totals.RebuildFailures)
	}
}

// TestBackpressureInlineDrain pins the queued-records cap: a batch
// pushing the queue past it pays for the drain instead of growing
// memory.
func TestBackpressureInlineDrain(t *testing.T) {
	seed := seedTrace("bp", 20, 5, 1)
	e, err := newEntry("bp", "test", 1e9, seed, time.Hour, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Observe([]trace.ProbeRecord{
		{Latency: 10, Status: trace.StatusCompleted},
		{Latency: 11, Status: trace.StatusCompleted},
		{Latency: 12, Status: trace.StatusCompleted},
	}, nil, 1); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 3 {
		t.Fatalf("pending %d, want 3", e.Pending())
	}
	// This ack crosses the cap of 4 → inline coalesced drain.
	res, err := e.Observe([]trace.ProbeRecord{
		{Latency: 13, Status: trace.StatusCompleted},
		{Latency: 14, Status: trace.StatusCompleted},
	}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 || res.Pending != 0 {
		t.Fatalf("queue not drained: entry %d, result %d", e.Pending(), res.Pending)
	}
	if res.State.Version != 2 || len(res.State.Trace.Records) != 21+5 {
		t.Fatalf("drained state: version %d, %d records", res.State.Version, len(res.State.Trace.Records))
	}
	if got := e.coalesced.Load(); got != 1 {
		t.Fatalf("coalesced %d, want 1 (2 batches, 1 rebuild)", got)
	}
}

// TestAsyncDegenerateWindowKeepsLastGoodModel pins the async failure
// story: a drain that would leave the window without completed probes
// keeps the previous model, counts a failure, and the next healthy
// batch recovers via the full-rebuild fallback.
func TestAsyncDegenerateWindowKeepsLastGoodModel(t *testing.T) {
	seed := seedTrace("deg", 10, 5, 0)
	e, err := newEntry("deg", "test", 100, seed, time.Hour, 1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	v1 := e.State().Version

	// All-outlier batch far ahead: everything completed falls out.
	far := 1e6
	if _, err := e.Observe([]trace.ProbeRecord{
		{Latency: trace.DefaultTimeout, Status: trace.StatusOutlier},
		{Latency: trace.DefaultTimeout, Status: trace.StatusOutlier},
	}, &far, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Flush(); err == nil {
		t.Fatal("degenerate drain succeeded")
	}
	if e.State().Version != v1 {
		t.Fatalf("degenerate drain swapped a model (version %d)", e.State().Version)
	}
	if e.rebuildFails.Load() != 1 {
		t.Fatalf("rebuild failures %d, want 1", e.rebuildFails.Load())
	}

	// A healthy batch recovers: the window now has completed probes
	// again and the rebuilt model reflects the full buffered history.
	if _, err := e.Observe([]trace.ProbeRecord{{Latency: 42, Status: trace.StatusCompleted}}, nil, 1); err != nil {
		t.Fatal(err)
	}
	st, _, err := e.Flush()
	if err != nil {
		t.Fatalf("recovery drain: %v", err)
	}
	if st.Version != v1+1 {
		t.Fatalf("recovered version %d, want %d", st.Version, v1+1)
	}
	if n := st.ecdf.N(); n != 1 {
		t.Fatalf("recovered window has %d completed probes, want 1 (outliers-only history plus the new probe)", n)
	}
	if st.Stats.Outliers != 2 {
		t.Fatalf("recovered window outliers %d, want 2", st.Stats.Outliers)
	}
}

// TestObservePrewarmsSwappedSnapshot checks the warm-cache handoff by
// construction: a pow kernel queried on one snapshot is already built
// on the snapshot an observation batch swaps in, before that snapshot
// answers anything, so its first query is a binary search instead of
// an O(n) table build.
func TestObservePrewarmsSwappedSnapshot(t *testing.T) {
	tr, width := benchSeedTrace(100_000)
	e, err := newEntry("warm", "test", width, tr, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	st := e.State()
	key := stats.TableKey{S: 1 - st.Model.Rho(), B: 5}
	st.ecdf.IntegralOneMinusFPow(600, key.S, key.B)
	res, err := e.Observe(benchBatch(rand.New(rand.NewSource(5)), benchBatchSize), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.State == st || res.State.ecdf == st.ecdf {
		t.Fatal("the observation batch did not swap in a new snapshot")
	}
	keys := res.State.ecdf.TableKeys()
	for _, k := range keys {
		if k == key {
			return
		}
	}
	t.Fatalf("swapped-in snapshot holds kernels %v, want %v built before its first query", keys, key)
}
