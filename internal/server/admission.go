package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// This file is the service's admission-control layer: SLO-class-aware
// load shedding plus per-request deadline propagation. The paper's
// finding that the priority/admission policy — not routing — is the
// primary SLO lever is applied to gridstratd's own front door: when
// the daemon saturates, sheddable traffic is turned away first (429 +
// Retry-After), standard next, and critical traffic is only refused at
// the hard inflight cap, so the requests that matter ride out the
// contention that would otherwise stall everything equally.

// Class is a request's SLO class, carried in the X-Gridstrat-Class
// header. Requests without the header are ClassStandard.
type Class uint8

const (
	// ClassCritical is shed only at the hard inflight cap.
	ClassCritical Class = iota
	// ClassStandard (the default) is shed past 90% of the cap.
	ClassStandard
	// ClassSheddable is shed past 50% of the cap — background traffic
	// that exists to absorb contention ahead of the other classes.
	ClassSheddable
	numClasses
)

// ClassHeader carries the request's SLO class.
const ClassHeader = "X-Gridstrat-Class"

// DeadlineHeader carries the caller's remaining budget in whole
// milliseconds; the server turns it into a context deadline so
// planning work is abandoned the moment the answer can no longer
// arrive in time (the response is then a 504 envelope).
const DeadlineHeader = "X-Gridstrat-Deadline-Ms"

// maxDeadlineMs bounds the deadline header (~24h): anything larger is
// indistinguishable from "no deadline" and would only risk overflow.
const maxDeadlineMs = 24 * 3600 * 1000

func (c Class) String() string {
	switch c {
	case ClassCritical:
		return "critical"
	case ClassSheddable:
		return "sheddable"
	default:
		return "standard"
	}
}

// ParseClass maps the header value to a Class. Empty means standard;
// unknown values are a caller bug and rejected with ok=false.
func ParseClass(h string) (Class, bool) {
	switch strings.ToLower(strings.TrimSpace(h)) {
	case "":
		return ClassStandard, true
	case "critical":
		return ClassCritical, true
	case "standard":
		return ClassStandard, true
	case "sheddable":
		return ClassSheddable, true
	default:
		return ClassStandard, false
	}
}

// admission is the server's inflight gate. One shared counter, three
// per-class admission ceilings: a class is admitted while the total
// inflight count (this request included) stays at or under its limit.
// Sheddable gives way first, then standard; critical only hits the
// hard cap. Zero max disables the gate entirely.
type admission struct {
	max    int64
	limits [numClasses]int64

	inflight atomic.Int64
	admitted atomic.Uint64
	shed     [numClasses]atomic.Uint64

	// Batch-plan counters (server-wide, reported as the stats "batch"
	// block): requests and items served, and items shed by partial or
	// whole-batch refusal. Item-level shedding is tracked here rather
	// than in the per-class request counters so a 64-item batch losing
	// its tail does not read as 64 refused requests.
	batchRequests atomic.Uint64
	batchItems    atomic.Uint64
	batchSheds    atomic.Uint64
}

// newAdmission builds the gate. The class ceilings are fixed fractions
// of the hard cap — sheddable 50%, standard 90%, critical 100% — each
// at least 1 so a tiny cap still admits one request of every class.
func newAdmission(max int) *admission {
	a := &admission{}
	if max <= 0 {
		return a // disabled
	}
	a.max = int64(max)
	frac := func(f float64) int64 {
		n := int64(f * float64(max))
		if n < 1 {
			n = 1
		}
		return n
	}
	a.limits[ClassCritical] = a.max
	a.limits[ClassStandard] = frac(0.9)
	a.limits[ClassSheddable] = frac(0.5)
	return a
}

// acquire admits or sheds one request of the class, returning the
// inflight count it observed at the decision (this request included)
// so shed messages can report the number the verdict was based on
// rather than a later, already-decremented read. On admit the caller
// must release exactly once.
func (a *admission) acquire(c Class) (int64, bool) {
	if a.max <= 0 {
		a.admitted.Add(1)
		return 0, true
	}
	n := a.inflight.Add(1)
	if n > a.limits[c] {
		a.inflight.Add(-1)
		a.shed[c].Add(1)
		return n, false
	}
	a.admitted.Add(1)
	return n, true
}

func (a *admission) release() {
	if a.max > 0 {
		a.inflight.Add(-1)
	}
}

// acquireN is the batch-aware cost model: a batch of want items
// charges want units against the class ceiling, and admission may be
// partial — when only part of the budget is free, the head of the
// batch is admitted and the tail shed. Returns the granted unit count
// (0 means the whole batch was refused) and the inflight total
// observed at the decision. The caller must releaseN(granted) once
// the granted items finish. Whole-batch refusal counts one shed
// request against the class (matching the single-request counters);
// item-level shed accounting is the batchSheds counter, which the
// handler increments per dropped item.
func (a *admission) acquireN(c Class, want int64) (granted, observed int64) {
	a.admitted.Add(1)
	if a.max <= 0 {
		return want, 0
	}
	limit := a.limits[c]
	for {
		cur := a.inflight.Load()
		free := limit - cur
		if free <= 0 {
			a.admitted.Add(^uint64(0)) // undo: the request was not admitted
			a.shed[c].Add(1)
			return 0, cur + want
		}
		g := want
		if g > free {
			g = free
		}
		if a.inflight.CompareAndSwap(cur, cur+g) {
			return g, cur + g
		}
	}
}

// releaseN returns n admission units taken by acquireN.
func (a *admission) releaseN(n int64) {
	if a.max > 0 && n > 0 {
		a.inflight.Add(-n)
	}
}

// retryAfterS estimates how long a shed caller should wait before
// retrying. The gate has no queue to measure, so the hint is the
// coarse one operators expect: one second.
const retryAfterS = 1

// classKey is the context key carrying the request's parsed Class for
// handlers that want it (none do today; the middleware records it for
// symmetry with the deadline, which handlers do consume via ctx).
type classKey struct{}

// RequestClass returns the SLO class the admission middleware parsed
// for this request (ClassStandard when the middleware did not run).
func RequestClass(ctx context.Context) Class {
	if c, ok := ctx.Value(classKey{}).(Class); ok {
		return c
	}
	return ClassStandard
}

// admissionMiddleware gates /v1/models* traffic by SLO class and
// propagates the caller's deadline header into the request context.
// Health and stats stay exempt: they are cheap, and they are exactly
// what an operator (or the cluster router's health checker) needs to
// see while the daemon is shedding.
func (s *Server) admissionMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Batch-plan requests are class-parsed and deadline-propagated
		// here, but their admission units are charged per item by the
		// handler (acquireN) — one slot for the envelope would let a
		// 64-item batch slip past a nearly-full gate.
		batch := strings.HasPrefix(r.URL.Path, "/v1/batch/")
		if !batch && !strings.HasPrefix(r.URL.Path, "/v1/models") {
			next.ServeHTTP(w, r)
			return
		}
		class, ok := ParseClass(r.Header.Get(ClassHeader))
		if !ok {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("unknown %s %q (want critical, standard or sheddable)",
					ClassHeader, r.Header.Get(ClassHeader)))
			return
		}
		deadline := r.Header.Get(DeadlineHeader)
		// The overwhelmingly common request — standard class, no
		// deadline — needs no context derivation at all (RequestClass
		// defaults to standard), so the hot path skips the WithValue
		// and request-clone allocations entirely.
		if class != ClassStandard || deadline != "" {
			ctx := context.WithValue(r.Context(), classKey{}, class)
			if deadline != "" {
				ms, err := strconv.ParseInt(deadline, 10, 64)
				if err != nil || ms <= 0 || ms > maxDeadlineMs {
					writeError(w, http.StatusBadRequest, "bad_request",
						fmt.Sprintf("bad %s %q (want integer milliseconds in (0, %d])",
							DeadlineHeader, deadline, int64(maxDeadlineMs)))
					return
				}
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
				defer cancel()
			}
			r = r.WithContext(ctx)
		}
		if batch {
			next.ServeHTTP(w, r)
			return
		}
		if n, ok := s.adm.acquire(class); !ok {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterS))
			writeError(w, http.StatusTooManyRequests, "shed",
				fmt.Sprintf("%s-class request shed: %d requests in flight against a %s limit of %d; retry after %ds",
					class, n, class, s.adm.limits[class], retryAfterS))
			return
		}
		defer s.adm.release()
		next.ServeHTTP(w, r)
	})
}

// ResilienceStats is the admission/degradation slice of /v1/stats —
// server-wide counters, not per-shard (the gate is one front door).
// The cluster router sums each backend's block into its fleet totals.
type ResilienceStats struct {
	AdmittedTotal     uint64 `json:"admitted_total"`
	ShedCritical      uint64 `json:"shed_critical"`
	ShedStandard      uint64 `json:"shed_standard"`
	ShedSheddable     uint64 `json:"shed_sheddable"`
	DegradedResponses uint64 `json:"degraded_responses"`
}

// resilienceStats snapshots the counters.
func (s *Server) resilienceStats() ResilienceStats {
	return ResilienceStats{
		AdmittedTotal:     s.adm.admitted.Load(),
		ShedCritical:      s.adm.shed[ClassCritical].Load(),
		ShedStandard:      s.adm.shed[ClassStandard].Load(),
		ShedSheddable:     s.adm.shed[ClassSheddable].Load(),
		DegradedResponses: s.degradedCount.Load(),
	}
}

// BatchStats is the batch-plan slice of /v1/stats — server-wide
// counters like ResilienceStats (the batch gate is one front door).
// The cluster router sums each backend's block into its fleet totals.
type BatchStats struct {
	Requests uint64 `json:"batch_requests"`
	Items    uint64 `json:"batch_items"`
	Sheds    uint64 `json:"batch_sheds"`
}

// batchStats snapshots the counters.
func (s *Server) batchStats() BatchStats {
	return BatchStats{
		Requests: s.adm.batchRequests.Load(),
		Items:    s.adm.batchItems.Load(),
		Sheds:    s.adm.batchSheds.Load(),
	}
}

// AddShardStats accumulates b into a, field by field (the stats
// handler sums its shards with it, the router its fleet).
func AddShardStats(a *ShardStats, b ShardStats) {
	a.Models += b.Models
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Evictions += b.Evictions
	a.IngestBatches += b.IngestBatches
	a.IngestRecords += b.IngestRecords
	a.Rebuilds += b.Rebuilds
	a.CoalescedBatches += b.CoalescedBatches
	a.RebuildFailures += b.RebuildFailures
	a.QueuedRecords += b.QueuedRecords
	a.WALAppends += b.WALAppends
	a.WALSnapshotBytes += b.WALSnapshotBytes
	a.ReplayedRecords += b.ReplayedRecords
	a.ResidentBytes += b.ResidentBytes
	a.ModelsExact += b.ModelsExact
	a.ModelsSketch += b.ModelsSketch
	a.Demotions += b.Demotions
}

// AddBatchStats accumulates b into a, field by field (the router uses
// it to sum fleet totals).
func AddBatchStats(a *BatchStats, b BatchStats) {
	a.Requests += b.Requests
	a.Items += b.Items
	a.Sheds += b.Sheds
}

// AddResilienceStats accumulates b into a, field by field (the router
// uses it to sum fleet totals).
func AddResilienceStats(a *ResilienceStats, b ResilienceStats) {
	a.AdmittedTotal += b.AdmittedTotal
	a.ShedCritical += b.ShedCritical
	a.ShedStandard += b.ShedStandard
	a.ShedSheddable += b.ShedSheddable
	a.DegradedResponses += b.DegradedResponses
}

// degradedOf decides whether a response computed on this snapshot must
// be marked degraded, and why. Degraded answers are still correct
// answers — the last-good model state, or a bounded-error sketch —
// served in conditions where the pre-resilience server answered 503:
//
//   - "recovering": the boot WAL replay is still in flight and this
//     model was restored on demand; other models may still be missing.
//   - "backlog": acknowledged observations beyond the staleness
//     threshold are queued but not yet folded into any snapshot, so
//     the answer lags the acked data.
//   - "memory_pressure": the byte-pressure enforcer demoted this model
//     to the sketch tier, so integrals carry the sketch's (certified)
//     rank error. A model that is sketch-tier by policy is not
//     degraded — that is its normal representation.
//
// The counter increments here, so call it once per response, on the
// success path only.
func (s *Server) degradedOf(e *Entry, st *ModelState) (string, bool) {
	reason := ""
	switch {
	case s.recovering.Load():
		reason = "recovering"
	case e.Pending() >= s.degradedPending():
		reason = "backlog"
	case st.Tier == TierSketch && !e.policySketch:
		reason = "memory_pressure"
	default:
		return "", false
	}
	s.degradedCount.Add(1)
	return reason, true
}

// degradedPending is the queued-record threshold past which responses
// are marked degraded (the config value, defaulted in withDefaults).
func (s *Server) degradedPending() int { return s.cfg.DegradedPending }
