package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"gridstrat"
	"gridstrat/internal/cluster"
	"gridstrat/internal/core"
	"gridstrat/internal/server"
	"gridstrat/internal/trace"
	"gridstrat/internal/wal"
)

// ladderSize bounds how much of the workload each in-process layer
// replays.
type ladderSize struct {
	handlerOps int // server layer: the first ops of the timed sequence
	plannerOps int // stats/planner layer: the first planning requests
}

var ladderSizes = map[string]ladderSize{
	"plan_sweep":   {handlerOps: 24, plannerOps: 8},
	"ingest_churn": {handlerOps: 12, plannerOps: 6},
}

const (
	// clusterOps is how many genCachedTraffic operations the router
	// hop replays, each both direct and through the router.
	clusterOps = 5000
	// ladderRefreshes is how many ingest_churn batches the ingest and
	// WAL layers replay.
	ladderRefreshes = 12
)

// handlerTransport answers requests from in-process handlers keyed by
// URL host: the ladder's transport with no socket.
type handlerTransport map[string]http.Handler

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no in-process handler for host %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req.Clone(req.Context()))
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

func inProcessClient(h http.Handler) *client {
	return &client{base: "http://inproc", hc: &http.Client{Transport: handlerTransport{"inproc": h}}}
}

// memStats reads the cumulative allocation counters.
func memStats() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// serveTimed runs one request through h in-process and returns its
// status, duration, allocation counts and body.
func serveTimed(h http.Handler, path string, body []byte) (int, time.Duration, uint64, uint64, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	m0, b0 := memStats()
	start := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(start)
	m1, b1 := memStats()
	return rec.Code, d, m1 - m0, b1 - b0, rec.Body.Bytes()
}

// newInProcess builds an in-process server configured like the
// workload's daemon and runs the workload's set-up against it.
func newInProcess(ctx context.Context, cfg config) (*server.Server, func(), error) {
	walDir := ""
	cleanup := func() {}
	if cfg.wl.useWAL {
		dir, err := os.MkdirTemp(cfg.work, "ladder-wal-")
		if err != nil {
			return nil, nil, err
		}
		walDir = dir
		cleanup = func() { _ = os.RemoveAll(dir) }
	}
	srv, err := server.New(cfg.wl.serverConfig(walDir))
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	if err := srv.Recover(); err != nil {
		cleanup()
		return nil, nil, err
	}
	if cfg.wl.preload {
		if err := srv.Preload("all"); err != nil {
			cleanup()
			return nil, nil, err
		}
	}
	if err := cfg.wl.setup(ctx, inProcessClient(srv.Handler()), newGenerator(cfg.seed+setupSeedOffset)); err != nil {
		cleanup()
		return nil, nil, fmt.Errorf("in-process set-up: %w", err)
	}
	return srv, cleanup, nil
}

// observeRecords converts a wire observation batch to probe records
// the way the observations handler does.
func observeRecords(req server.ObserveRequest, timeout float64) []trace.ProbeRecord {
	recs := make([]trace.ProbeRecord, 0, len(req.Latencies)+req.Outliers)
	for _, lat := range req.Latencies {
		recs = append(recs, trace.ProbeRecord{Latency: lat, Status: trace.StatusCompleted})
	}
	for i := 0; i < req.Outliers; i++ {
		recs = append(recs, trace.ProbeRecord{Latency: timeout, Status: trace.StatusOutlier})
	}
	return recs
}

// planReq is one planning request replayed on the planner layer.
type planReq struct {
	tr   *trace.Trace
	opts *server.Options
}

// twinOp performs op's work on srv without the HTTP handler: registry
// lookups, Entry.Observe and a Planner on the snapshot's shared model,
// as the handlers do. It returns the rolling window a single
// recommend or refresh planned on.
func twinOp(srv *server.Server, o *op, workers int) (time.Duration, *trace.Trace, error) {
	reg := srv.Registry()
	plan := func(model string, opts *server.Options) (*trace.Trace, error) {
		e, err := reg.Get(model)
		if err != nil {
			return nil, err
		}
		st := e.State()
		if opts == nil {
			return st.Trace, nil // answered from the snapshot's cached bytes
		}
		_, err = plannerRecommend(st.Model, opts, workers)
		return st.Trace, err
	}
	start := time.Now()
	switch o.kind {
	case opRecommend:
		tr, err := plan(o.model, o.opts)
		return time.Since(start), tr, err
	case opBatch:
		for _, it := range o.items {
			if _, err := plan(it.Model, it.Options); err != nil {
				return 0, nil, err
			}
		}
		return time.Since(start), nil, nil
	}
	var req server.ObserveRequest
	if err := json.Unmarshal(o.body, &req); err != nil {
		return 0, nil, err
	}
	e, err := reg.Get(o.model)
	if err != nil {
		return 0, nil, err
	}
	recs := observeRecords(req, e.State().Trace.Timeout)
	start = time.Now()
	if _, err := e.Observe(recs, nil, req.SpacingS); err != nil {
		return 0, nil, err
	}
	st := e.State()
	if _, err := plannerRecommend(st.Model, nil, workers); err != nil {
		return 0, nil, err
	}
	return time.Since(start), st.Trace, nil
}

// layerMetrics collects the traced run's per-layer metrics.
type layerMetrics struct {
	m        map[string]metric
	attempts int
}

func (l *layerMetrics) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

// runTraced runs the workload end to end once more (untraced, for
// the daemon and wire metrics), then replays its operations down the
// layer ladder in-process.
func runTraced(cfg config) (report, error) {
	ctx := context.Background()
	lm := &layerMetrics{m: map[string]metric{}}

	e2eP50, err := tracedEndToEnd(ctx, cfg, lm)
	if err != nil {
		return report{}, err
	}
	handlerP50, plans, err := serverLayer(ctx, cfg, lm)
	if err != nil {
		return report{}, err
	}
	lm.set("wire.tax_us_per_op", (e2eP50-handlerP50)*1000, "us")
	if err := plannerLayer(plans, lm); err != nil {
		return report{}, err
	}
	if err := clusterLayer(ctx, cfg, lm); err != nil {
		return report{}, err
	}
	if err := ingestLayers(cfg, lm); err != nil {
		return report{}, err
	}
	return report{Correct: true, Attempted: lm.attempts, Metrics: lm.m}, nil
}

// tracedEndToEnd runs the timed phase against a real daemon and
// records the daemon, wire and /v1/stats counters. It returns the
// timed class's median latency in ms.
func tracedEndToEnd(ctx context.Context, cfg config, lm *layerMetrics) (float64, error) {
	s, err := setUp(ctx, cfg, 1)
	if err != nil {
		return 0, err
	}
	defer s.d.stop()
	p, err := runPhase(ctx, cfg, s)
	if err != nil {
		return 0, err
	}
	st, err := s.d.stats(ctx)
	if err != nil {
		return 0, err
	}
	var lats []time.Duration
	requests := 0
	// runPhase has checked that every operation succeeded.
	for i, r := range p.run.res {
		lm.attempts++
		requests++
		if p.ops[i].kind == opRefresh {
			requests++
		}
		if timedClass(p.ops[i].kind) {
			lats = append(lats, r.lat)
		}
	}
	ops := float64(len(p.ops))
	lm.set("daemon.cpu_ms_per_op", p.cpuMs/ops, "ms")
	lm.set("wire.client_allocs_per_op", float64(p.clientMallocs)/ops, "count")
	lm.set("wire.conn_reuse_ratio", 1-float64(s.c.dials.Load())/float64(requests), "ratio")
	t := st.Totals
	hitRatio := 0.0
	if t.Hits+t.Misses > 0 {
		hitRatio = float64(t.Hits) / float64(t.Hits+t.Misses)
	}
	lm.set("server.registry_hit_ratio", hitRatio, "ratio")
	r := st.Resilience
	lm.set("server.shed_total", float64(r.ShedCritical+r.ShedStandard+r.ShedSheddable+st.Batch.Sheds), "count")
	lm.set("server.degraded_responses", float64(r.DegradedResponses), "count")
	lm.set("wal.appends", float64(p.walApps), "count")
	return median(sortedMs(lats)), nil
}

// serverLayer replays the workload's first operations through an
// in-process server's handler, and the same operations without the
// handler on a twin server set up identically. It returns the timed
// class's median handler latency in ms and the planning requests the
// planner layer replays.
func serverLayer(ctx context.Context, cfg config, lm *layerMetrics) (float64, []planReq, error) {
	size := ladderSizes[cfg.wl.name]
	_, _, ops := timedOps(cfg)
	if len(ops) > size.handlerOps {
		ops = ops[:size.handlerOps]
	}
	srv, cleanup, err := newInProcess(ctx, cfg)
	if err != nil {
		return 0, nil, err
	}
	defer cleanup()
	twin, twinCleanup, err := newInProcess(ctx, cfg)
	if err != nil {
		return 0, nil, err
	}
	defer twinCleanup()

	h := srv.Handler()
	workers := runtime.GOMAXPROCS(0)
	var (
		handlerUs, selfUs, batchUsPerItem []float64
		allocs, bytesAlloc                uint64
		timed                             int
		plans                             []planReq
		planModels                        = map[string]bool{}
	)
	for i := range ops {
		o := ops[i]
		lm.attempts++
		status, d, ma, mb, _ := serveTimed(h, o.path, o.body)
		if status == http.StatusOK && o.kind == opRefresh {
			var d2 time.Duration
			var ma2, mb2 uint64
			status, d2, ma2, mb2, _ = serveTimed(h, o.path2, o.body2)
			d, ma, mb = d+d2, ma+ma2, mb+mb2
		}
		if status != http.StatusOK {
			return 0, nil, fmt.Errorf("in-process op %d: status %d", i, status)
		}
		td, tr, err := twinOp(twin, o, workers)
		if err != nil {
			return 0, nil, fmt.Errorf("twin op %d: %w", i, err)
		}
		if o.kind == opBatch {
			batchUsPerItem = append(batchUsPerItem, float64(d)/1e3/float64(len(o.items)))
			continue
		}
		timed++
		allocs += ma
		bytesAlloc += mb
		handlerUs = append(handlerUs, float64(d)/1e3)
		selfUs = append(selfUs, float64(d-td)/1e3)
		// The planning requests: every refresh and option-carrying
		// recommend, and the first option-free recommend per model.
		if len(plans) < size.plannerOps && (o.kind == opRefresh || o.opts != nil || !planModels[o.model]) {
			planModels[o.model] = true
			plans = append(plans, planReq{tr: tr, opts: o.opts})
		}
	}
	if len(batchUsPerItem) == 0 {
		// The workload sends no batches: time batches of 64 cached
		// recommends on its own model instead.
		items := make([]server.BatchItem, hotBatchItems)
		for i := range items {
			items[i] = server.BatchItem{Model: ops[0].model, Op: "recommend"}
		}
		b := batchOp(items)
		for k := 0; k < 16; k++ {
			lm.attempts++
			status, d, _, _, _ := serveTimed(h, b.path, b.body)
			if status != http.StatusOK {
				return 0, nil, fmt.Errorf("in-process batch: status %d", status)
			}
			batchUsPerItem = append(batchUsPerItem, float64(d)/1e3/float64(len(items)))
		}
	}
	lm.set("server.handler_us_per_op", medianOf(handlerUs), "us")
	lm.set("server.handler_self_us_per_op", medianOf(selfUs), "us")
	lm.set("server.allocs_per_op", float64(allocs)/float64(timed), "count")
	lm.set("server.bytes_per_op", float64(bytesAlloc)/float64(timed), "B")
	lm.set("server.batch_us_per_item", medianOf(batchUsPerItem), "us")
	return medianOf(handlerUs) / 1000, plans, nil
}

// timedModel wraps the library's empirical model and times every
// integral call. It implements exactly the optional interfaces
// core.EmpiricalModel does — core.BatchIntegrals and
// core.ProdBothIntegrals — so the optimizers take the same paths
// through it. Planners over it run with parallelism 1, so its
// counters need no synchronization.
type timedModel struct {
	m *core.EmpiricalModel

	calls, scalarProd, batch int64
	ns                       time.Duration
}

var (
	_ core.BatchIntegrals    = (*timedModel)(nil)
	_ core.ProdBothIntegrals = (*timedModel)(nil)
)

func (t *timedModel) start() time.Time { t.calls++; return time.Now() }

func (t *timedModel) Ftilde(x float64) float64 { return t.m.Ftilde(x) }
func (t *timedModel) Rho() float64             { return t.m.Rho() }
func (t *timedModel) UpperBound() float64      { return t.m.UpperBound() }

func (t *timedModel) IntOneMinusFPow(T float64, b int) float64 {
	s := t.start()
	v := t.m.IntOneMinusFPow(T, b)
	t.ns += time.Since(s)
	return v
}

func (t *timedModel) IntUOneMinusFPow(T float64, b int) float64 {
	s := t.start()
	v := t.m.IntUOneMinusFPow(T, b)
	t.ns += time.Since(s)
	return v
}

func (t *timedModel) IntProdOneMinusF(T, shift float64) float64 {
	t.scalarProd++
	s := t.start()
	v := t.m.IntProdOneMinusF(T, shift)
	t.ns += time.Since(s)
	return v
}

func (t *timedModel) IntUProdOneMinusF(T, shift float64) float64 {
	t.scalarProd++
	s := t.start()
	v := t.m.IntUProdOneMinusF(T, shift)
	t.ns += time.Since(s)
	return v
}

func (t *timedModel) IntProdBothOneMinusF(T, shift float64) (float64, float64) {
	t.scalarProd++
	s := t.start()
	a, b := t.m.IntProdBothOneMinusF(T, shift)
	t.ns += time.Since(s)
	return a, b
}

func (t *timedModel) IntOneMinusFPowBatch(Ts []float64, b int) []float64 {
	t.batch++
	s := t.start()
	v := t.m.IntOneMinusFPowBatch(Ts, b)
	t.ns += time.Since(s)
	return v
}

func (t *timedModel) IntUOneMinusFPowBatch(Ts []float64, b int) []float64 {
	t.batch++
	s := t.start()
	v := t.m.IntUOneMinusFPowBatch(Ts, b)
	t.ns += time.Since(s)
	return v
}

func (t *timedModel) IntProdBothBatch(Ts []float64, shift float64) ([]float64, []float64) {
	t.batch++
	s := t.start()
	a, b := t.m.IntProdBothBatch(Ts, shift)
	t.ns += time.Since(s)
	return a, b
}

func (t *timedModel) Sample(rng *rand.Rand) float64 { return t.m.Sample(rng) }

// plannerLayer replays the planning requests on cold library models:
// once through the timing wrapper (stats-layer counts and time) and
// once unwrapped (planner time and allocations). The two answers must
// be identical; the time difference is the wrapper's overhead.
func plannerLayer(plans []planReq, lm *layerMetrics) error {
	if len(plans) == 0 {
		return fmt.Errorf("no planning requests to replay")
	}
	var (
		calls, scalarProd, batch int64
		kernel, traced, untraced time.Duration
		allocs, bytesAlloc       uint64
	)
	for i, p := range plans {
		lm.attempts++
		// Untraced, traced, traced, untraced: both sides see the same
		// cache and heap history, so their difference is the wrapper.
		var tm *timedModel
		var recs [4]gridstrat.Recommendation
		for k := 0; k < 4; k++ {
			m, err := core.ModelFromTrace(p.tr)
			if err != nil {
				return err
			}
			var model gridstrat.Model = m
			isTraced := k == 1 || k == 2
			if isTraced {
				tm = &timedModel{m: m}
				model = tm
			}
			a0, b0 := memStats()
			start := time.Now()
			rec, err := plannerRecommend(model, p.opts, 1)
			d := time.Since(start)
			a1, b1 := memStats()
			if err != nil {
				return fmt.Errorf("planning request %d: %w", i, err)
			}
			recs[k] = rec
			if isTraced {
				traced += d
				continue
			}
			untraced += d
			allocs += a1 - a0
			bytesAlloc += b1 - b0
		}
		for k := 1; k < 4; k++ {
			if !reflect.DeepEqual(recs[0], recs[k]) {
				return fmt.Errorf("planning request %d: traced and untraced answers differ: %+v vs %+v", i, recs[0], recs[k])
			}
		}
		calls += tm.calls
		scalarProd += tm.scalarProd
		batch += tm.batch
		kernel += tm.ns
	}
	// Each request ran twice per side.
	n := float64(len(plans))
	traced, untraced, allocs, bytesAlloc = traced/2, untraced/2, allocs/2, bytesAlloc/2
	lm.set("stats.kernel_calls_per_op", float64(calls)/n, "count")
	lm.set("stats.scalar_prod_calls_per_op", float64(scalarProd)/n, "count")
	lm.set("stats.batch_call_share", float64(batch)/float64(calls), "ratio")
	lm.set("stats.kernel_ms_per_op", kernel.Seconds()*1000/n, "ms")
	lm.set("planner.ms_per_op", untraced.Seconds()*1000/n, "ms")
	lm.set("planner.self_ms_per_op", (traced-kernel).Seconds()*1000/n, "ms")
	lm.set("planner.allocs_per_op", float64(allocs)/n, "count")
	lm.set("planner.bytes_per_op", float64(bytesAlloc)/n, "B")
	lm.set("trace.overhead_ms_per_op", (traced-untraced).Seconds()*1000/n, "ms")
	return nil
}

// clusterBackend configures the cluster layer's in-process backend:
// every paper model preloaded with its default recommendation cached,
// behind the same admission cap as plan_sweep.
var clusterBackend = &workload{
	name:        "cluster backend",
	preload:     true,
	maxInflight: hotMaxInflight,
	setup:       setupPreloaded(false),
}

// clusterLayer replays option-free traffic (genCachedTraffic) on an
// in-process backend, directly and through an in-process cluster
// router in front of it, and takes the difference as the router hop.
func clusterLayer(ctx context.Context, cfg config, lm *layerMetrics) error {
	hcfg := cfg
	hcfg.wl = clusterBackend
	backend, cleanup, err := newInProcess(ctx, hcfg)
	if err != nil {
		return err
	}
	defer cleanup()
	bh := backend.Handler()
	// Two members served by the one backend: batches still fan out
	// across members, and the ring may place a model on either.
	hc := &http.Client{Transport: handlerTransport{"b0.inproc": bh, "b1.inproc": bh}}
	rt, err := cluster.NewRouter(cluster.Config{
		Backends:       []string{"http://b0.inproc", "http://b1.inproc"},
		HealthInterval: -1,
		HedgeDelay:     -1,
		Client:         hc,
		HealthClient:   hc,
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	rt.CheckNow()
	rh := rt.Handler()

	g := newGenerator(cfg.seed)
	var direct, via, directBatch, viaBatch []float64
	var directAllocs, viaAllocs uint64
	singles := 0
	for i := 0; i < clusterOps; i++ {
		o := genCachedTraffic(g)
		lm.attempts += 2
		ds, dd, da, _, db := serveTimed(bh, o.path, o.body)
		dbody := bytes.Clone(db)
		vs, vd, va, _, vb := serveTimed(rh, o.path, o.body)
		if ds != http.StatusOK || vs != http.StatusOK || !bytes.Equal(dbody, vb) {
			return fmt.Errorf("cluster op %d: direct %d, routed %d, bodies equal %v", i, ds, vs, bytes.Equal(dbody, vb))
		}
		if o.kind == opBatch {
			directBatch = append(directBatch, float64(dd)/1e3)
			viaBatch = append(viaBatch, float64(vd)/1e3)
			continue
		}
		singles++
		direct = append(direct, float64(dd)/1e3)
		via = append(via, float64(vd)/1e3)
		directAllocs += da
		viaAllocs += va
	}
	lm.set("cluster.hop_us_per_op", medianOf(via)-medianOf(direct), "us")
	lm.set("cluster.allocs_per_op", (float64(viaAllocs)-float64(directAllocs))/float64(singles), "count")
	lm.set("cluster.fanout_us_per_item", (medianOf(viaBatch)-medianOf(directBatch))/hotBatchItems, "us")
	return nil
}

// ingestLayers replays ingest_churn's refresh batches on an
// in-process registry with a WAL (Entry.Observe, then a fresh
// recommend on the new snapshot), and the same batches straight into
// a standalone WAL log.
func ingestLayers(cfg config, lm *layerMetrics) error {
	churn, err := workloadByName("ingest_churn")
	if err != nil {
		return err
	}
	ccfg := cfg
	ccfg.wl = churn
	_, _, ops := timedOps(ccfg)
	if len(ops) > ladderRefreshes {
		ops = ops[:ladderRefreshes]
	}
	dir, err := os.MkdirTemp(cfg.work, "ladder-ingest-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	store, err := wal.NewStore(filepath.Join(dir, "registry"), wal.Options{})
	if err != nil {
		return err
	}
	reg := server.NewRegistry(8, 256)
	reg.SetWAL(store, 4096)
	tr, err := gridstrat.SynthesizeDataset(churnSource)
	if err != nil {
		return err
	}
	e, err := reg.Put(churnModel, "dataset:"+churnSource, churnWindowS, tr)
	if err != nil {
		return err
	}
	timeout := e.State().Trace.Timeout
	sg := newGenerator(cfg.seed + setupSeedOffset)
	for i := 0; i*churnBatch < churnWindowRecords+churnBatch; i++ {
		req, err := sg.churnRecords()
		if err != nil {
			return err
		}
		if _, err := e.Observe(observeRecords(req, timeout), nil, req.SpacingS); err != nil {
			return err
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if _, err := plannerRecommend(e.State().Model, nil, workers); err != nil {
		return err
	}
	rebuilds := func() uint64 {
		var n uint64
		for _, sh := range reg.Stats() {
			n += sh.Rebuilds
		}
		return n
	}
	r0 := rebuilds()

	logStore, err := wal.NewStore(filepath.Join(dir, "log"), wal.Options{})
	if err != nil {
		return err
	}
	log, _, _, err := logStore.Open("bench")
	if err != nil {
		return err
	}
	defer log.Close()

	var observeUs, freshMs, appendUs []float64
	var allocs uint64
	var cursor float64
	var nextID, records int
	for i := range ops {
		lm.attempts++
		var req server.ObserveRequest
		if err := json.Unmarshal(ops[i].body, &req); err != nil {
			return err
		}
		recs := observeRecords(req, timeout)
		a0, _ := memStats()
		start := time.Now()
		res, err := e.Observe(recs, nil, req.SpacingS)
		d := time.Since(start)
		a1, _ := memStats()
		if err != nil {
			return fmt.Errorf("observe %d: %w", i, err)
		}
		if res.Appended != len(recs) || len(res.State.Trace.Records) != churnWindowRecords {
			return fmt.Errorf("observe %d: appended %d, window %d", i, res.Appended, len(res.State.Trace.Records))
		}
		observeUs = append(observeUs, float64(d)/1e3)
		allocs += a1 - a0
		start = time.Now()
		if _, err := plannerRecommend(res.State.Model, nil, workers); err != nil {
			return fmt.Errorf("fresh recommend %d: %w", i, err)
		}
		freshMs = append(freshMs, float64(time.Since(start))/1e6)

		stamped := make([]trace.ProbeRecord, len(recs))
		for j, r := range recs {
			cursor += req.SpacingS
			r.ID, r.Submit = nextID, cursor
			nextID++
			stamped[j] = r
		}
		records += len(stamped)
		start = time.Now()
		if err := log.AppendBatch(wal.Batch{Cursor: cursor, NextID: int64(nextID), Records: stamped}); err != nil {
			return fmt.Errorf("wal append %d: %w", i, err)
		}
		appendUs = append(appendUs, float64(time.Since(start))/1e3)
	}
	if err := log.Sync(); err != nil {
		return err
	}
	var logBytes int64
	segs, _ := filepath.Glob(filepath.Join(logStore.Dir("bench"), "wal-*.log"))
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil {
			logBytes += fi.Size()
		}
	}
	n := float64(len(ops))
	lm.set("ingest.observe_us_per_batch", medianOf(observeUs), "us")
	lm.set("ingest.allocs_per_batch", float64(allocs)/n, "count")
	lm.set("ingest.rebuilds", float64(rebuilds()-r0)/n, "count")
	lm.set("ingest.fresh_recommend_ms", medianOf(freshMs), "ms")
	lm.set("wal.append_us_per_batch", medianOf(appendUs), "us")
	lm.set("wal.bytes_per_record", float64(logBytes)/float64(records), "B")
	return nil
}
