package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"mime"
	"net/http"
	"strconv"
	"time"

	"gridstrat"
	"gridstrat/internal/trace"
)

// statusClientClosedRequest is the nginx-convention status reported
// when the client went away before the computation finished (there is
// no standard code for it; 499 is the de-facto one).
const statusClientClosedRequest = 499

// maxObservationBatch caps the records one ingestion batch may carry.
const maxObservationBatch = 1 << 20

// maxSubmitTime bounds explicit start_s values (~31,000 years in
// seconds) so submit cursors stay far below float64's 2^53 integer
// precision limit.
const maxSubmitTime = 1e12

// maxSpacing bounds spacing_s (~11.6 days between probes). Together
// with maxSubmitTime and maxObservationBatch it keeps the submit
// cursor exact: 1e12 + 2^20·1e6 ≈ 1.05e12 per batch stays far below
// 2^53, and Entry.Observe re-bases the window near its absolute
// ceiling so the cursor can never drift there across batches.
const maxSpacing = 1e6

// maxStationarityWindows caps the window count a stationarity query
// may sweep: the WindowStats advance loop walks one window at a time
// across the trace's submit span, so an adversarially tiny width
// against a long trace would otherwise pin a CPU with no cancellation
// point.
const maxStationarityWindows = 100_000

// writeJSON serializes v with the given status through the pooled
// response encoder (see pool.go): the body is framed with an explicit
// Content-Length and written in one call.
func writeJSON(w http.ResponseWriter, status int, v any) {
	writeJSONBody(w, status, v)
}

// writeError emits the uniform error envelope.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{Code: code, Message: msg}})
}

// computeErrEnvelope maps an error from planning/simulation work to
// its envelope parts: context cancellation becomes 499 (client closed)
// or 504 (deadline), registry misses 404, refused durable acks 503,
// everything else 422 — the request was well-formed but the
// computation rejected it (unparameterized strategy, no strategy
// within budget, no success mass, …). failCompute writes it as a
// response; the batch endpoint embeds it per item.
func computeErrEnvelope(err error) (status int, code, msg string) {
	switch {
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest, "cancelled", "request cancelled: " + err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded", err.Error()
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, "not_found", err.Error()
	case errors.Is(err, ErrDurability):
		// The ack was refused because the durable log could not take
		// the batch (disk full, fsync failure, poisoned segment); the
		// records were NOT acknowledged, so the caller may retry once
		// the storage recovers.
		return http.StatusServiceUnavailable, "storage_error", err.Error()
	default:
		return http.StatusUnprocessableEntity, "unprocessable", err.Error()
	}
}

// failCompute writes the envelope computeErrEnvelope maps err to.
func failCompute(w http.ResponseWriter, r *http.Request, err error) {
	status, code, msg := computeErrEnvelope(err)
	writeError(w, status, code, msg)
}

// decodeJSON decodes the request body into v under the configured
// size cap. An entirely empty body is allowed when allowEmpty is set
// (endpoints whose every field is optional).
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any, allowEmpty bool) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return nil
	}
	if errors.Is(err, io.EOF) && allowEmpty {
		return nil
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		return err
	}
	writeError(w, http.StatusBadRequest, "bad_request", "malformed JSON body: "+err.Error())
	return err
}

// submitSpan returns the submit-time extent of a trace's records.
func submitSpan(tr *trace.Trace) float64 {
	if len(tr.Records) == 0 {
		return 0
	}
	lo, hi := tr.Records[0].Submit, tr.Records[0].Submit
	for _, rec := range tr.Records[1:] {
		if rec.Submit < lo {
			lo = rec.Submit
		}
		if rec.Submit > hi {
			hi = rec.Submit
		}
	}
	return hi - lo
}

// checkReady gates model routes while a WAL replay is in flight: the
// registry is still filling, so a miss would be indistinguishable
// from a deleted model. 503 plus the "recovering" health status lets
// a router keep the backend out of rotation until it is whole.
func (s *Server) checkReady(w http.ResponseWriter) bool {
	if s.recovering.Load() {
		writeError(w, http.StatusServiceUnavailable, "recovering",
			"wal replay in progress; retry shortly")
		return false
	}
	return true
}

// entryFor resolves the {id} path segment against the registry,
// writing the 404 envelope on a miss. On a durable registry a miss
// first tries a restore from disk — an LRU-evicted model is a cache
// miss, not a gone model. The same lazy restore is what lets model
// routes keep serving during a boot WAL replay: a model the replay
// has not reached yet is restored on demand and answers degraded
// ("recovering") instead of 503ing, and a genuinely absent model is a
// real 404 even mid-replay because the durable store is consulted
// directly.
func (s *Server) entryFor(w http.ResponseWriter, r *http.Request) (*Entry, bool) {
	id := r.PathValue("id")
	e, err := s.reg.Get(id)
	if err != nil {
		e, err = s.reg.Restore(id)
	}
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			writeError(w, http.StatusNotFound, "not_found", err.Error())
		} else {
			writeError(w, http.StatusUnprocessableEntity, "unprocessable", err.Error())
		}
		return nil, false
	}
	return e, true
}

// walStatus renders the durability state for /v1/healthz.
func (s *Server) walStatus() string {
	switch {
	case s.reg.walStore == nil:
		return "disabled"
	case s.recovering.Load():
		return "recovering"
	default:
		return "ready"
	}
}

// handleHealth serves GET /healthz and GET /v1/healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:  "ok",
		Version: Version,
		Models:  s.reg.Len(),
		UptimeS: time.Since(s.start).Seconds(),
		WAL:     s.walStatus(),
	})
}

// handleStats serves GET /v1/stats: the per-shard registry counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	shards := s.reg.Stats()
	var totals ShardStats
	for _, sh := range shards {
		AddShardStats(&totals, sh)
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		UptimeS:    time.Since(s.start).Seconds(),
		Models:     totals.Models,
		Capacity:   s.reg.Capacity(),
		Shards:     shards,
		Totals:     totals,
		Resilience: s.resilienceStats(),
		Batch:      s.batchStats(),
	})
}

// handleCreateModel serves POST /v1/models. Two request shapes are
// accepted: an application/json body (CreateModelRequest, with the
// trace document inline for uploads), or a raw trace document in any
// other content type with ?id=, ?format= and optional ?window_s=
// query parameters — the curl-friendly upload path.
func (s *Server) handleCreateModel(w http.ResponseWriter, r *http.Request) {
	if !s.checkReady(w) {
		return
	}
	var req CreateModelRequest
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		ct = mt // strip parameters like "; charset=utf-8"
	}
	if ct == "" || ct == "application/json" {
		if err := s.decodeJSON(w, r, &req, false); err != nil {
			return
		}
	} else {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeError(w, http.StatusRequestEntityTooLarge, "too_large",
					fmt.Sprintf("trace upload exceeds %d bytes", tooLarge.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, "bad_request", "reading trace upload: "+err.Error())
			return
		}
		q := r.URL.Query()
		req = CreateModelRequest{ID: q.Get("id"), Format: q.Get("format"), Trace: string(raw)}
		if ws := q.Get("window_s"); ws != "" {
			v, err := strconv.ParseFloat(ws, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad_request", "bad window_s: "+err.Error())
				return
			}
			req.WindowS = v
		}
	}

	if req.ID == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "missing model id")
		return
	}
	if (req.Dataset == "") == (req.Trace == "") {
		writeError(w, http.StatusBadRequest, "bad_request",
			"exactly one of dataset or trace (with format) must be provided")
		return
	}

	var (
		tr     *trace.Trace
		source string
		err    error
	)
	if req.Dataset != "" {
		tr, err = gridstrat.SynthesizeDataset(req.Dataset)
		source = "dataset:" + req.Dataset
	} else {
		tr, err = parseTrace(req.Format, req.Trace)
		source = "upload:" + req.Format
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	window := req.WindowS
	if window == 0 {
		window = s.cfg.DefaultWindow
	}
	e, err := s.reg.Put(req.ID, source, window, tr)
	if err != nil {
		switch {
		case errors.Is(err, ErrExists):
			writeError(w, http.StatusConflict, "conflict", err.Error())
		case errors.Is(err, ErrInvalid):
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		default:
			writeError(w, http.StatusUnprocessableEntity, "unprocessable",
				"building model: "+err.Error())
		}
		return
	}
	writeJSON(w, http.StatusCreated, modelInfo(e))
}

// handleListModels serves GET /v1/models.
func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	if !s.checkReady(w) {
		return
	}
	resp := ListModelsResponse{Models: []ModelInfo{}}
	for _, e := range s.reg.List() {
		resp.Models = append(resp.Models, modelInfo(e))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleGetModel serves GET /v1/models/{id}. With ?window_s=<width>
// the response also carries a stationarity report of the model's
// trace at that analysis window.
func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	// One snapshot load for both the info and the stationarity report,
	// so a concurrent ingestion swap cannot make the response describe
	// two different windows.
	st := e.State()
	info := modelInfoAt(e, st)
	if ws, _ := queryValue(r.URL.RawQuery, "window_s"); ws != "" {
		width, err := strconv.ParseFloat(ws, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "bad window_s: "+err.Error())
			return
		}
		if width <= 0 || math.IsNaN(width) {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("window_s must be positive, got %v", width))
			return
		}
		if span := submitSpan(st.Trace); span/width > maxStationarityWindows {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("window_s %v sweeps more than %d windows over the trace's %.0f s submit span",
					width, maxStationarityWindows, span))
			return
		}
		rep, err := gridstrat.AnalyzeStationarity(st.Trace, width)
		if err != nil {
			failCompute(w, r, err)
			return
		}
		info.Stationarity = &StationarityJSON{
			Windows:      rep.Windows,
			MeanDrift:    rep.MeanDrift,
			RhoDrift:     rep.RhoDrift,
			TrendPValue:  rep.MeanTrend.PValue,
			TrendSlopeS:  rep.TrendSlope,
			TrendRising:  rep.TrendSlope > 0,
			WindowWidthS: width,
		}
	}
	info.DegradedReason, info.Degraded = s.degradedOf(e, st)
	writeJSON(w, http.StatusOK, info)
}

// handleDeleteModel serves DELETE /v1/models/{id}.
func (s *Server) handleDeleteModel(w http.ResponseWriter, r *http.Request) {
	if !s.checkReady(w) {
		return
	}
	if !s.reg.Delete(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("%s: %q", ErrNotFound.Error(), r.PathValue("id")))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleRecommend serves POST /v1/models/{id}/recommend.
//
// The option-free request — the serving hot path — is answered from
// the snapshot's cached default recommendation: the first hit on a
// fresh snapshot computes it through the snapshot's shared Planner and
// caches the complete response bytes, and every later hit replays them
// without building a Planner, running the advisor, or encoding JSON.
// Requests with options (or cheapest, or a degraded snapshot) take the
// full per-request path.
func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	var req RecommendRequest
	if err := s.decodeJSONPooled(w, r, &req, true); err != nil {
		return
	}
	st := e.State()
	if req.Options == nil && !req.Cheapest {
		// The cached answer is computed under a background context, so
		// honor the request's cancellation explicitly — an abandoned
		// request must still map to the 499/504 envelope.
		if err := r.Context().Err(); err != nil {
			failCompute(w, r, err)
			return
		}
		_, body, err := st.defaultRecommend(e.ID)
		if err != nil {
			failCompute(w, r, err)
			return
		}
		if reason, degraded := s.degradedOf(e, st); degraded {
			// Degraded answers carry per-request fields the cached
			// bytes cannot; re-render around the cached computation.
			resp := RecommendResponse{
				Model:          e.ID,
				Version:        st.Version,
				Recommendation: st.recEnvelope,
				Degraded:       degraded,
				DegradedReason: reason,
			}
			writeJSON(w, http.StatusOK, resp)
			return
		}
		writeRawJSON(w, http.StatusOK, body)
		return
	}
	p, err := s.plannerFor(r, st, req.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	var rec gridstrat.Recommendation
	if req.Cheapest {
		rec, err = p.RecommendCheapest()
	} else {
		rec, err = p.Recommend()
	}
	if err != nil {
		failCompute(w, r, err)
		return
	}
	resp := RecommendResponse{
		Model:          e.ID,
		Version:        st.Version,
		Recommendation: recToJSON(rec),
	}
	resp.DegradedReason, resp.Degraded = s.degradedOf(e, st)
	writeJSON(w, http.StatusOK, resp)
}

// handleRank serves POST /v1/models/{id}/rank.
func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	var req RankRequest
	if err := s.decodeJSONPooled(w, r, &req, true); err != nil {
		return
	}
	var strategies []gridstrat.Strategy
	for i, sp := range req.Strategies {
		st, err := sp.toStrategy()
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("strategies[%d]: %v", i, err))
			return
		}
		strategies = append(strategies, st)
	}
	st := e.State()
	p, err := s.plannerFor(r, st, req.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	ranked, err := p.Rank(strategies...)
	if err != nil {
		failCompute(w, r, err)
		return
	}
	resp := RankResponse{Model: e.ID, Version: st.Version, Ranking: []RankedJSON{}}
	for _, rs := range ranked {
		resp.Ranking = append(resp.Ranking, RankedJSON{
			StrategySpec: specOf(rs.Strategy),
			Eval:         evalToJSON(rs.Eval),
			DeltaCost:    rs.Delta,
		})
	}
	resp.DegradedReason, resp.Degraded = s.degradedOf(e, st)
	writeJSON(w, http.StatusOK, resp)
}

// handleOptimize serves POST /v1/models/{id}/optimize: tune the
// strategy's free parameters on the model.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	var req OptimizeRequest
	if err := s.decodeJSONPooled(w, r, &req, false); err != nil {
		return
	}
	strat, err := req.Strategy.toStrategy()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	st := e.State()
	p, err := s.plannerFor(r, st, req.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	tuned, ev, err := p.Optimize(strat)
	if err != nil {
		failCompute(w, r, err)
		return
	}
	resp := OptimizeResponse{
		Model:    e.ID,
		Version:  st.Version,
		Strategy: specOf(tuned),
		Eval:     evalToJSON(ev),
	}
	resp.DegradedReason, resp.Degraded = s.degradedOf(e, st)
	writeJSON(w, http.StatusOK, resp)
}

// handleSimulate serves POST /v1/models/{id}/simulate: a Monte Carlo
// replay of a fully parameterized strategy.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	var req SimulateRequest
	if err := s.decodeJSONPooled(w, r, &req, false); err != nil {
		return
	}
	if req.Runs <= 0 {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("runs must be positive, got %d", req.Runs))
		return
	}
	if req.Runs > s.cfg.MaxRuns {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("runs %d exceeds the per-request cap %d", req.Runs, s.cfg.MaxRuns))
		return
	}
	strat, err := req.Strategy.toStrategy()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	// An omitted seed draws a fresh one per request (the Planner's
	// default RNG is fixed, which would make every unseeded replay
	// byte-identical); echoing it in the response keeps even unseeded
	// runs reproducible after the fact.
	if req.Options == nil {
		req.Options = &Options{}
	}
	if req.Options.Seed == nil {
		seed := rand.Uint64()
		req.Options.Seed = &seed
	}
	st := e.State()
	p, err := s.plannerFor(r, st, req.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	res, err := p.Simulate(strat, req.Runs)
	if err != nil {
		failCompute(w, r, err)
		return
	}
	resp := SimulateResponse{
		Model:   e.ID,
		Version: st.Version,
		Seed:    *req.Options.Seed,
		Result: SimResultJSON{
			Runs:            res.Runs,
			EJS:             res.EJ,
			SigmaS:          res.Sigma,
			StdErrS:         res.StdErr,
			MeanSubmissions: res.MeanSubmissions,
			MeanParallel:    res.MeanParallel,
		},
	}
	resp.DegradedReason, resp.Degraded = s.degradedOf(e, st)
	writeJSON(w, http.StatusOK, resp)
}

// handleMakespan serves POST /v1/models/{id}/makespan.
func (s *Server) handleMakespan(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	var req MakespanRequest
	if err := s.decodeJSON(w, r, &req, false); err != nil {
		return
	}
	if req.MaxB < 0 {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("max_b must be >= 0, got %d", req.MaxB))
		return
	}
	if req.MaxB > 0 && req.Strategy != nil {
		writeError(w, http.StatusBadRequest, "bad_request",
			"max_b and strategy are mutually exclusive")
		return
	}
	app := gridstrat.Application{
		Tasks:     req.App.Tasks,
		WaveWidth: req.App.WaveWidth,
		Runtime:   req.App.RuntimeS,
	}
	if err := app.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	st := e.State()
	p, err := s.plannerFor(r, st, req.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	resp := MakespanResponse{Model: e.ID, Version: st.Version}
	var est gridstrat.MakespanEstimate
	switch {
	case req.MaxB > 0:
		resp.B, est, err = p.SmallestCollection(app, req.MaxB)
		if err == nil && resp.B == 0 {
			writeError(w, http.StatusUnprocessableEntity, "unprocessable",
				fmt.Sprintf("no collection size up to %d meets the deadline", req.MaxB))
			return
		}
	case req.Strategy != nil:
		var strat gridstrat.Strategy
		strat, err = req.Strategy.toStrategy()
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		est, err = p.EstimateMakespanUnder(app, strat)
	default:
		est, err = p.EstimateMakespan(app)
	}
	if err != nil {
		failCompute(w, r, err)
		return
	}
	resp.Estimate = MakespanJSON{
		Strategy:     est.Strategy,
		MakespanS:    est.Makespan,
		PerWaveS:     est.PerWave,
		GridLoad:     est.GridLoad,
		TotalTaskSec: est.TotalTaskSec,
	}
	resp.DegradedReason, resp.Degraded = s.degradedOf(e, st)
	writeJSON(w, http.StatusOK, resp)
}

// handleObservations serves POST /v1/models/{id}/observations: append
// one batch of fresh probe outcomes and swap in the rebuilt
// rolling-window model.
func (s *Server) handleObservations(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	var req ObserveRequest
	if err := s.decodeJSONPooled(w, r, &req, false); err != nil {
		return
	}
	if len(req.Latencies)+req.Outliers == 0 {
		writeError(w, http.StatusBadRequest, "bad_request",
			"empty batch: provide latencies and/or outliers")
		return
	}
	if req.Outliers < 0 {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("outliers must be >= 0, got %d", req.Outliers))
		return
	}
	// The latency list is bounded by the body cap, but the outlier
	// count is a bare integer — without this cap a 40-byte request
	// could demand gigabytes of records. Each term is checked before
	// the sum so a MaxInt-scale outlier count cannot overflow past the
	// guard into a makeslice panic.
	if req.Outliers > maxObservationBatch || len(req.Latencies) > maxObservationBatch ||
		len(req.Latencies)+req.Outliers > maxObservationBatch {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("batch of %d + %d records exceeds the cap %d",
				len(req.Latencies), req.Outliers, maxObservationBatch))
		return
	}
	if req.SpacingS < 0 || math.IsNaN(req.SpacingS) || req.SpacingS > maxSpacing {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("spacing_s must be within [0, %g], got %v", float64(maxSpacing), req.SpacingS))
		return
	}
	// start_s must stay in a range where cursor arithmetic is exact:
	// past ~2^53 adding the spacing no longer changes the float64
	// cursor, which would freeze the rolling-window cutoff onto every
	// future record and silently stop regimes from aging out.
	if req.StartS != nil && !(*req.StartS >= 0 && *req.StartS <= maxSubmitTime) {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("start_s must be within [0, %g], got %v", maxSubmitTime, *req.StartS))
		return
	}
	timeout := e.State().Trace.Timeout
	recs := make([]trace.ProbeRecord, 0, len(req.Latencies)+req.Outliers)
	for i, lat := range req.Latencies {
		if lat < 0 || math.IsNaN(lat) || lat > timeout {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("latencies[%d] = %v outside [0, timeout %v]", i, lat, timeout))
			return
		}
		recs = append(recs, trace.ProbeRecord{Latency: lat, Status: trace.StatusCompleted})
	}
	for i := 0; i < req.Outliers; i++ {
		recs = append(recs, trace.ProbeRecord{Latency: timeout, Status: trace.StatusOutlier})
	}
	res, err := e.Observe(recs, req.StartS, req.SpacingS)
	if err != nil {
		failCompute(w, r, err)
		return
	}
	s.reg.noteIngest(e.ID, res.Appended)
	if req.Sync && res.Pending > 0 {
		// The batch was acknowledged into the async queue; the caller
		// asked for its effect, so drain the queue before answering.
		// A failed drain (degenerate window) is NOT an error response:
		// the records were acknowledged and applied to the buffer, so
		// a non-2xx here would invite clients to re-post an ingested
		// batch. The unchanged version reports that no model was
		// built; rebuild_failures in /v1/stats counts it.
		st, dropped, err := e.Flush()
		if err == nil {
			res.Dropped += dropped
		}
		res.State, res.Pending = st, e.Pending()
	}
	writeJSON(w, http.StatusOK, ObserveResponse{
		Model:         e.ID,
		Version:       res.State.Version,
		Appended:      res.Appended,
		Dropped:       res.Dropped,
		Pending:       res.Pending,
		WindowRecords: len(res.State.Trace.Records),
		Stats:         statsToJSON(res.State.Stats),
	})
}
