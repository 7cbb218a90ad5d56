package server

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"gridstrat"
)

// This file implements POST /v1/batch/plan: many (model, op) planning
// queries in one HTTP exchange. The batch is the wire-level
// counterpart of the library's batched kernels — one request
// amortizes connection, framing, admission and encoding costs over
// every item, and items on the same model snapshot share its
// candidate table, which is filled once per snapshot however many
// items or requests ask.
//
// Semantics:
//   - Items execute with bounded concurrency (the server worker cap)
//     over registry snapshots; results are positionally ordered.
//   - Each item succeeds or fails alone: a bad item yields a per-item
//     error envelope, never a failed batch.
//   - Admission charges one unit per item against the request class's
//     ceiling (see acquireN). A partially admitted batch executes the
//     granted head and sheds the tail with per-item "shed" envelopes
//     plus a Retry-After header; a fully refused batch answers 429.

// maxBatchItems caps the items one batch may carry — the same
// "bounded request" discipline as maxObservationBatch: the per-item
// cost model bounds concurrency, this bounds the envelope itself.
const maxBatchItems = 4096

// handleBatchPlan serves POST /v1/batch/plan.
func (s *Server) handleBatchPlan(w http.ResponseWriter, r *http.Request) {
	var req BatchPlanRequest
	if err := s.decodeJSONPooled(w, r, &req, false); err != nil {
		return
	}
	n := len(req.Items)
	if n == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "empty batch: provide items")
		return
	}
	if n > maxBatchItems {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("batch of %d items exceeds the cap %d", n, maxBatchItems))
		return
	}

	class := RequestClass(r.Context())
	granted64, observed := s.adm.acquireN(class, int64(n))
	granted := int(granted64)
	if granted == 0 {
		s.adm.batchSheds.Add(uint64(n))
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterS))
		writeError(w, http.StatusTooManyRequests, "shed",
			fmt.Sprintf("%s-class batch of %d shed whole: %d units in flight against a %s limit of %d; retry after %ds",
				class, n, observed, class, s.adm.limits[class], retryAfterS))
		return
	}
	defer s.adm.releaseN(granted64)

	s.adm.batchRequests.Add(1)
	s.adm.batchItems.Add(uint64(granted))

	results := make([]BatchItemResult, n)
	s.runBatch(r, req.Items[:granted], results[:granted])

	shed := n - granted
	if shed > 0 {
		s.adm.batchSheds.Add(uint64(shed))
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterS))
		for i := granted; i < n; i++ {
			results[i] = BatchItemResult{Error: &BatchItemError{
				Status: http.StatusTooManyRequests,
				Code:   "shed",
				Message: fmt.Sprintf("item shed by partial admission: %d of %d admitted against the %s limit of %d; retry after %ds",
					granted, n, class, s.adm.limits[class], retryAfterS),
			}}
		}
	}
	writeJSON(w, http.StatusOK, BatchPlanResponse{
		Results:  results,
		Admitted: granted,
		Shed:     shed,
	})
}

// runBatch executes items into results (same length) with bounded
// concurrency. A single-item batch runs inline — no goroutine, no
// WaitGroup — so the smallest batches stay on the caller's stack.
func (s *Server) runBatch(r *http.Request, items []BatchItem, results []BatchItemResult) {
	if len(items) == 1 {
		results[0] = s.batchItemResult(r, items[0])
		return
	}
	workers := s.cfg.MaxWorkers
	if workers > len(items) {
		workers = len(items)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				results[i] = s.batchItemResult(r, items[i])
			}
		}()
	}
	wg.Wait()
}

// batchItemError renders err exactly as the single-request handler
// would, embedded in the item envelope.
func batchItemError(err error) BatchItemResult {
	status, code, msg := computeErrEnvelope(err)
	return BatchItemResult{Error: &BatchItemError{Status: status, Code: code, Message: msg}}
}

func batchItemBadRequest(msg string) BatchItemResult {
	return BatchItemResult{Error: &BatchItemError{
		Status: http.StatusBadRequest, Code: "bad_request", Message: msg,
	}}
}

// batchItemResult executes one item, mirroring the corresponding
// single-request handler exactly: same resolution (registry get with
// on-demand restore), same option handling, same degraded marking,
// same error vocabulary. The parity suite holds batch items
// bit-identical to single calls.
func (s *Server) batchItemResult(r *http.Request, it BatchItem) BatchItemResult {
	// Per-item shape validation: fields belonging to a different op
	// are caller bugs, rejected rather than ignored.
	switch it.Op {
	case "recommend":
		if len(it.Strategies) > 0 || it.Strategy != nil {
			return batchItemBadRequest("recommend items take options/cheapest only")
		}
	case "rank":
		if it.Cheapest || it.Strategy != nil {
			return batchItemBadRequest("rank items take options/strategies only")
		}
	case "optimize":
		if it.Cheapest || len(it.Strategies) > 0 {
			return batchItemBadRequest("optimize items take options/strategy only")
		}
		if it.Strategy == nil {
			return batchItemBadRequest("optimize items require a strategy")
		}
	case "":
		return batchItemBadRequest("missing op (want recommend, rank or optimize)")
	default:
		return batchItemBadRequest(fmt.Sprintf("unknown op %q (want recommend, rank or optimize)", it.Op))
	}

	e, err := s.reg.Get(it.Model)
	if err != nil {
		e, err = s.reg.Restore(it.Model)
	}
	if err != nil {
		return batchItemError(err)
	}
	st := e.State()

	switch it.Op {
	case "recommend":
		// The option-free item rides the snapshot's cached default
		// recommendation, the same fast path as the single endpoint.
		if it.Options == nil && !it.Cheapest {
			if err := r.Context().Err(); err != nil {
				return batchItemError(err)
			}
			if _, _, err := st.defaultRecommend(e.ID); err != nil {
				return batchItemError(err)
			}
			resp := &RecommendResponse{
				Model:          e.ID,
				Version:        st.Version,
				Recommendation: st.recEnvelope,
			}
			resp.DegradedReason, resp.Degraded = s.degradedOf(e, st)
			return BatchItemResult{Recommend: resp}
		}
		p, err := s.plannerFor(r, st, it.Options)
		if err != nil {
			return batchItemBadRequest(err.Error())
		}
		var rec gridstrat.Recommendation
		if it.Cheapest {
			rec, err = p.RecommendCheapest()
		} else {
			rec, err = p.Recommend()
		}
		if err != nil {
			return batchItemError(err)
		}
		resp := &RecommendResponse{
			Model:          e.ID,
			Version:        st.Version,
			Recommendation: recToJSON(rec),
		}
		resp.DegradedReason, resp.Degraded = s.degradedOf(e, st)
		return BatchItemResult{Recommend: resp}

	case "rank":
		var strategies []gridstrat.Strategy
		for i, sp := range it.Strategies {
			strat, err := sp.toStrategy()
			if err != nil {
				return batchItemBadRequest(fmt.Sprintf("strategies[%d]: %v", i, err))
			}
			strategies = append(strategies, strat)
		}
		p, err := s.plannerFor(r, st, it.Options)
		if err != nil {
			return batchItemBadRequest(err.Error())
		}
		ranked, err := p.Rank(strategies...)
		if err != nil {
			return batchItemError(err)
		}
		resp := &RankResponse{Model: e.ID, Version: st.Version, Ranking: []RankedJSON{}}
		for _, rs := range ranked {
			resp.Ranking = append(resp.Ranking, RankedJSON{
				StrategySpec: specOf(rs.Strategy),
				Eval:         evalToJSON(rs.Eval),
				DeltaCost:    rs.Delta,
			})
		}
		resp.DegradedReason, resp.Degraded = s.degradedOf(e, st)
		return BatchItemResult{Rank: resp}

	default: // "optimize", validated above
		strat, err := it.Strategy.toStrategy()
		if err != nil {
			return batchItemBadRequest(err.Error())
		}
		p, err := s.plannerFor(r, st, it.Options)
		if err != nil {
			return batchItemBadRequest(err.Error())
		}
		tuned, ev, err := p.Optimize(strat)
		if err != nil {
			return batchItemError(err)
		}
		resp := &OptimizeResponse{
			Model:    e.ID,
			Version:  st.Version,
			Strategy: specOf(tuned),
			Eval:     evalToJSON(ev),
		}
		resp.DegradedReason, resp.Degraded = s.degradedOf(e, st)
		return BatchItemResult{Optimize: resp}
	}
}
