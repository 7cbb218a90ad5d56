package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"gridstrat"
	"gridstrat/internal/core"
	"gridstrat/internal/server"
	"gridstrat/internal/trace"
)

const (
	// hotBatchItems is the item count of the cluster layer's batches
	// of option-free recommends.
	hotBatchItems = 64
	// sweepBatchItems is the item count of plan_sweep's batches.
	sweepBatchItems = 8
	// churnBatch is the record count of one ingest_churn refresh.
	churnBatch = 64
	// churnSpacing is the submit-time spacing (seconds) the daemon
	// stamps churn records with.
	churnSpacing = 60.0
	// churnWindowRecords is the stationary window size: the rolling
	// window is exactly this many spacings wide.
	churnWindowRecords = 2000
	// churnModel is the model ingest_churn writes to.
	churnModel = "churn"
	// churnSource is the paper dataset the churn model starts from
	// and whose latency law the ingested records follow.
	churnSource = "2006-IX"
	// librarySample is how many answers per run are recomputed with
	// the in-process library and compared field by field.
	librarySample = 8
)

// hotMaxInflight is plan_sweep's admission cap: far above what two
// clients can ever hold in flight (a batch charges one unit per item),
// so admission runs but nothing is shed.
const hotMaxInflight = 1024

var workloads = []*workload{
	{
		name:         "plan_sweep",
		clients:      2,
		opsPerSecond: 12,
		warmOps:      8,
		sloMs:        500,
		preload:      true,
		maxInflight:  hotMaxInflight,
		setup:        setupPreloaded(true),
		gen:          genPlanSweep,
		check:        checkPlanSweep,
	},
	{
		name:         "ingest_churn",
		clients:      1,
		opsPerSecond: 5.5,
		warmOps:      4,
		sloMs:        500,
		useWAL:       true,
		setup:        setupChurn,
		gen:          genChurn,
		check:        checkChurn,
	},
}

// args renders the workload's daemon flags (-addr and -wal-dir are
// added per start).
func (w *workload) args() []string {
	args := []string{"-quiet"}
	if w.preload {
		args = append(args, "-preload", "all")
	}
	if w.maxInflight > 0 {
		args = append(args, "-max-inflight", fmt.Sprint(w.maxInflight))
	}
	return args
}

// serverConfig is the in-process equivalent of args.
func (w *workload) serverConfig(walDir string) server.Config {
	return server.Config{MaxInflight: w.maxInflight, WALDir: walDir}
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// --- plan_sweep ---

// setupPreloaded checks that every paper model is registered and
// computes each one's cached default recommendation; withOptions also
// warms each model's kernel tables and shared memo with one
// max_parallel=5 recommend.
func setupPreloaded(withOptions bool) func(context.Context, *client, *generator) error {
	return func(ctx context.Context, c *client, g *generator) error {
		resp, err := c.hc.Get(c.base + "/v1/models")
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		var list server.ListModelsResponse
		if err := json.Unmarshal(raw, &list); err != nil {
			return fmt.Errorf("decoding model list: %w", err)
		}
		if len(list.Models) != len(g.models) {
			return fmt.Errorf("daemon has %d models, want %d", len(list.Models), len(g.models))
		}
		for _, m := range g.models {
			if err := c.postJSON(ctx, "/v1/models/"+m+"/recommend", server.RecommendRequest{}, nil); err != nil {
				return err
			}
			if withOptions {
				req := server.RecommendRequest{Options: &server.Options{MaxParallel: 5}}
				if err := c.postJSON(ctx, "/v1/models/"+m+"/recommend", req, nil); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// genCachedTraffic draws the option-free traffic the cluster layer
// replays: nine single recommends on stratified models, then one
// batch of 64 recommends on seeded models, at a seeded position in
// every block of ten. Every answer comes from a snapshot's
// pre-marshaled bytes, so the planner is bypassed.
func genCachedTraffic(g *generator) *op {
	if g.odd(10) {
		items := make([]server.BatchItem, hotBatchItems)
		for i := range items {
			items[i] = server.BatchItem{Model: g.models[g.rng.Intn(len(g.models))], Op: "recommend"}
		}
		return batchOp(items)
	}
	return recommendOp(g.models[g.next(len(g.models))], nil)
}

// planOptions draws one answerable option set: the stratified
// (model, max_parallel level b) pair, max_parallel in [b, b+1)
// (exactly 5 for b = 5) and a deadline in [600, 7200] s.
func (g *generator) planOptions() (string, *server.Options) {
	n := len(g.models)
	idx := g.next(5 * n)
	model, b := g.models[idx%n], idx/n+1
	mp := float64(b)
	if b < 5 {
		mp += math.Round(g.rng.Float64()*100) / 100
	}
	return model, &server.Options{MaxParallel: mp, DeadlineS: float64(600 + g.rng.Intn(6601))}
}

// genPlanSweep: three option-carrying single recommends and one batch
// of eight such items at a seeded position in every block of four.
func genPlanSweep(g *generator) *op {
	if g.odd(4) {
		items := make([]server.BatchItem, sweepBatchItems)
		for i := range items {
			m, o := g.planOptions()
			items[i] = server.BatchItem{Model: m, Op: "recommend", Options: o}
		}
		return batchOp(items)
	}
	return recommendOp(g.planOptions())
}

// libraryAnswer recomputes a recommendation in-process: the same
// rolling window the daemon holds, the library's empirical model and
// a fresh Planner with the request's options.
func libraryAnswer(tr *trace.Trace, opts *server.Options) (server.RecommendationJSON, error) {
	m, err := core.ModelFromTrace(tr)
	if err != nil {
		return server.RecommendationJSON{}, err
	}
	rec, err := plannerRecommend(m, opts, 1)
	if err != nil {
		return server.RecommendationJSON{}, err
	}
	return recJSON(rec), nil
}

// plannerRecommend runs a fresh Planner's Recommend with the wire
// options applied the way the daemon applies them.
func plannerRecommend(m gridstrat.Model, opts *server.Options, workers int) (gridstrat.Recommendation, error) {
	po := []gridstrat.PlannerOption{gridstrat.WithParallelism(workers)}
	if opts != nil {
		if opts.MaxParallel != 0 {
			po = append(po, gridstrat.WithMaxParallel(opts.MaxParallel))
		}
		if opts.DeadlineS != 0 {
			po = append(po, gridstrat.WithDeadline(opts.DeadlineS))
		}
	}
	p, err := gridstrat.NewPlanner(m, po...)
	if err != nil {
		return gridstrat.Recommendation{}, err
	}
	return p.Recommend()
}

// recJSON is the wire form the daemon renders for a recommendation.
func recJSON(rec gridstrat.Recommendation) server.RecommendationJSON {
	s := rec.AsStrategy()
	p := s.Params()
	return server.RecommendationJSON{
		StrategySpec: server.StrategySpec{Strategy: string(s.Name()), B: p.B, TInfS: p.TInf, T0S: p.T0},
		Eval:         server.EvaluationJSON{EJS: rec.Eval.EJ, SigmaS: rec.Eval.Sigma, Parallel: rec.Eval.Parallel},
		DeltaCost:    rec.Delta,
		Summary:      rec.String(),
	}
}

// windowTraces builds the rolling windows the daemon's preload
// registers, through the same registry code.
func windowTraces(names []string) (map[string]*trace.Trace, error) {
	reg := server.NewRegistry(1, len(names)+1)
	out := make(map[string]*trace.Trace, len(names))
	for _, n := range names {
		if _, ok := out[n]; ok {
			continue
		}
		tr, err := gridstrat.SynthesizeDataset(n)
		if err != nil {
			return nil, err
		}
		e, err := reg.Put(n, "dataset:"+n, 7*24*3600, tr)
		if err != nil {
			return nil, err
		}
		out[n] = e.State().Trace
	}
	return out, nil
}

// checkRecommend verifies one decoded recommend answer's identity.
func checkRecommend(r *server.RecommendResponse, model string, version int64) error {
	if r.Model != model || r.Version != version || r.Degraded {
		return fmt.Errorf("recommend answer for %q: model %q version %d degraded %v, want version %d",
			model, r.Model, r.Version, r.Degraded, version)
	}
	if r.Recommendation.Strategy == "" || !(r.Recommendation.Eval.EJS > 0) {
		return fmt.Errorf("recommend answer for %q: empty recommendation", model)
	}
	return nil
}

// decodeBatch decodes a batch answer and checks each item against
// its request item.
func decodeBatch(body []byte, items []server.BatchItem) ([]server.RecommendResponse, error) {
	var br server.BatchPlanResponse
	if err := json.Unmarshal(body, &br); err != nil {
		return nil, fmt.Errorf("decoding batch answer: %w", err)
	}
	if len(br.Results) != len(items) || br.Admitted != len(items) || br.Shed != 0 {
		return nil, fmt.Errorf("batch answer: %d results, %d admitted, %d shed for %d items",
			len(br.Results), br.Admitted, br.Shed, len(items))
	}
	out := make([]server.RecommendResponse, len(items))
	for i, r := range br.Results {
		if r.Error != nil || r.Recommend == nil {
			return nil, fmt.Errorf("batch item %d: %+v", i, r.Error)
		}
		if err := checkRecommend(r.Recommend, items[i].Model, 1); err != nil {
			return nil, fmt.Errorf("batch item %d: %w", i, err)
		}
		out[i] = *r.Recommend
	}
	return out, nil
}

// checkPlanSweep runs after every operation succeeded. It decodes
// every answer and compares a seeded sample of single and batch-item
// answers with the library.
func checkPlanSweep(ctx context.Context, c *client, g *generator, ops []*op, run *phaseRun) error {
	type pick struct {
		model string
		opts  *server.Options
		got   server.RecommendationJSON
	}
	var picks []pick
	for i := range run.res {
		body := run.kept[i].body
		switch ops[i].kind {
		case opRecommend:
			var rr server.RecommendResponse
			if err := json.Unmarshal(body, &rr); err != nil {
				return fmt.Errorf("op %d: decoding recommend: %w", i, err)
			}
			if err := checkRecommend(&rr, ops[i].model, 1); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
			picks = append(picks, pick{ops[i].model, ops[i].opts, rr.Recommendation})
		case opBatch:
			items, err := decodeBatch(body, ops[i].items)
			if err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
			for j, it := range items {
				picks = append(picks, pick{ops[i].items[j].Model, ops[i].items[j].Options, it.Recommendation})
			}
		}
	}
	if len(picks) == 0 {
		return fmt.Errorf("no successful answers to check")
	}
	n := librarySample
	if n > len(picks) {
		n = len(picks)
	}
	idx := g.rng.Perm(len(picks))[:n]
	var names []string
	for _, i := range idx {
		names = append(names, picks[i].model)
	}
	windows, err := windowTraces(names)
	if err != nil {
		return err
	}
	for _, i := range idx {
		p := picks[i]
		want, err := libraryAnswer(windows[p.model], p.opts)
		if err != nil {
			return err
		}
		if p.got != want {
			return fmt.Errorf("recommend %s %+v: daemon %+v, library %+v", p.model, *p.opts, p.got, want)
		}
	}
	return nil
}

// --- ingest_churn ---

// churnWindowS is the churn model's rolling-window width.
const churnWindowS = (churnWindowRecords - 1) * churnSpacing

// churnRecords draws one refresh batch: two to four outliers, the
// rest completed latencies resampled from the source dataset with a
// small seeded jitter (so the window's support stays near its record
// count).
func (g *generator) churnRecords() (server.ObserveRequest, error) {
	if g.base == nil {
		tr, err := gridstrat.SynthesizeDataset(churnSource)
		if err != nil {
			return server.ObserveRequest{}, err
		}
		for _, r := range tr.Records {
			if r.Status == trace.StatusCompleted {
				g.base = append(g.base, r.Latency)
			}
		}
		g.timeout = tr.Timeout
	}
	outliers := 2 + g.rng.Intn(3)
	lat := make([]float64, churnBatch-outliers)
	for i := range lat {
		v := g.base[g.rng.Intn(len(g.base))] * math.Exp(0.05*g.rng.NormFloat64())
		lat[i] = math.Min(math.Round(v*1000)/1000, g.timeout)
	}
	return server.ObserveRequest{Latencies: lat, Outliers: outliers, SpacingS: churnSpacing, Sync: true}, nil
}

// setupChurn registers the churn model and turns its window over
// with seeded records, then computes the first recommendation.
func setupChurn(ctx context.Context, c *client, g *generator) error {
	create := server.CreateModelRequest{ID: churnModel, Dataset: churnSource, WindowS: churnWindowS}
	if err := c.postJSON(ctx, "/v1/models", create, nil); err != nil {
		return err
	}
	var last server.ObserveResponse
	for i := 0; i*churnBatch < churnWindowRecords+churnBatch; i++ {
		req, err := g.churnRecords()
		if err != nil {
			return err
		}
		if err := c.postJSON(ctx, "/v1/models/"+churnModel+"/observations", req, &last); err != nil {
			return err
		}
	}
	if last.WindowRecords != churnWindowRecords {
		return fmt.Errorf("churn window holds %d records after turnover, want %d", last.WindowRecords, churnWindowRecords)
	}
	return c.postJSON(ctx, "/v1/models/"+churnModel+"/recommend", server.RecommendRequest{}, nil)
}

func genChurn(g *generator) *op {
	req, err := g.churnRecords()
	if err != nil {
		panic(err) // the source dataset is built in; setup already drew from it
	}
	return &op{
		kind:  opRefresh,
		model: churnModel,
		path:  "/v1/models/" + churnModel + "/observations",
		body:  mustJSON(req),
		path2: "/v1/models/" + churnModel + "/recommend",
		body2: mustJSON(server.RecommendRequest{}),
	}
}

// checkChurn runs after every operation succeeded. It decodes every
// refresh: the observation must be applied whole on a stationary
// window and the recommend must answer on the snapshot that
// observation produced.
func checkChurn(ctx context.Context, c *client, g *generator, ops []*op, run *phaseRun) error {
	prev := int64(-1)
	for i := range run.res {
		k := run.kept[i]
		var obs server.ObserveResponse
		if err := json.Unmarshal(k.body, &obs); err != nil {
			return fmt.Errorf("refresh %d: decoding observe: %w", i, err)
		}
		var rec server.RecommendResponse
		if err := json.Unmarshal(k.body2, &rec); err != nil {
			return fmt.Errorf("refresh %d: decoding recommend: %w", i, err)
		}
		if obs.Appended != churnBatch || obs.Pending != 0 || obs.WindowRecords != churnWindowRecords {
			return fmt.Errorf("refresh %d: appended %d pending %d window %d", i, obs.Appended, obs.Pending, obs.WindowRecords)
		}
		if err := checkRecommend(&rec, churnModel, obs.Version); err != nil {
			return fmt.Errorf("refresh %d: %w", i, err)
		}
		if obs.Version <= prev {
			return fmt.Errorf("refresh %d: version %d not above %d", i, obs.Version, prev)
		}
		prev = obs.Version
	}
	return nil
}
