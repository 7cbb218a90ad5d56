package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridstrat/internal/server"
)

// RouterVersion identifies the router build, reported by its healthz.
const RouterVersion = "0.7.0"

// Config tunes a Router.
type Config struct {
	// Backends is the static member list: base URLs of the gridstratd
	// daemons (e.g. "http://10.0.0.1:8372"). Required.
	Backends []string
	// VNodes is the virtual-node count per backend (default 64).
	VNodes int
	// Replicas is the candidate-list length per model ID: the owner
	// plus Replicas-1 failover successors considered when the owner is
	// down (default 3, clamped to the backend count).
	Replicas int
	// HealthInterval is the backend polling period (default 1s;
	// non-positive disables background polling — CheckNow drives it).
	HealthInterval time.Duration
	// MaxBodyBytes bounds the registration bodies the router buffers to
	// discover the model ID (default 32 MiB).
	MaxBodyBytes int64
	// Client issues the forwarded requests (default: 30 s timeout).
	Client *http.Client
	// HealthClient issues the health probes. It is deliberately
	// separate from Client: a probe against a hung (not refusing)
	// backend must fail fast, or every sweep stalls for the forwarding
	// timeout and down-detection lags far behind the poll interval
	// (default: 2 s timeout).
	HealthClient *http.Client
	// BreakerThreshold is the consecutive-failure count that opens a
	// backend's circuit breaker (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker denies traffic before
	// admitting the half-open probe (default 2s).
	BreakerCooldown time.Duration
	// HedgeDelay tunes read hedging: after this long without a primary
	// response, an idempotent GET/HEAD is duplicated and the first
	// answer wins. Zero (the default) tracks each backend's rolling p95
	// latency (50ms until enough samples accumulate); negative disables
	// hedging.
	HedgeDelay time.Duration
	// RetryBudgetRatio is the retry-budget earn rate: every primary
	// request earns this many tokens and every failover retry or hedge
	// spends one, bounding the router's load amplification under a
	// fleet-wide brownout (default 0.1, i.e. ≤10% extra load at steady
	// state).
	RetryBudgetRatio float64
	// RetryBudgetBurst caps (and initially fills) the retry-budget
	// token bucket (default 16).
	RetryBudgetBurst int
	// Logger receives placement and failover lines; nil disables.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = defaultVNodes
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Replicas > len(c.Backends) {
		c.Replicas = len(c.Backends)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// backendCounters is one backend's router-side traffic tally.
type backendCounters struct {
	forwarded atomic.Uint64 // requests proxied to this backend
	errors    atomic.Uint64 // transport failures against it
	inflight  atomic.Int64  // currently outstanding proxied requests
}

// Router is the cluster front: it owns the ring, the health checker
// and the sticky placement table, and serves the same /v1 surface as a
// single gridstratd, transparently spread over the fleet.
type Router struct {
	cfg     Config
	ring    *Ring
	checker *Checker
	mux     *http.ServeMux
	start   time.Time

	counters map[string]*backendCounters
	breakers map[string]*breaker
	latency  map[string]*latencyTracker
	budget   *retryBudget

	hedged        atomic.Uint64 // hedge attempts launched
	hedgeWins     atomic.Uint64 // responses delivered by the hedge
	retriesDenied atomic.Uint64 // retries/hedges refused by the budget

	// placement pins a model ID to the backend serving it. An entry is
	// written on first routing and cleared on ready-state transitions:
	// when a backend goes down every placement onto it is dropped (the
	// next request picks a failover successor), and when one comes back
	// every placement whose ring owner it is is dropped (traffic moves
	// home, where the WAL replay restored the model).
	mu        sync.Mutex
	placement map[string]string
}

// NewRouter builds the router and runs one synchronous health sweep so
// the first request already sees real liveness.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	backends := make([]string, 0, len(cfg.Backends))
	for _, b := range cfg.Backends {
		b = strings.TrimRight(strings.TrimSpace(b), "/")
		if b == "" {
			continue
		}
		if _, err := url.Parse(b); err != nil {
			return nil, fmt.Errorf("cluster: bad backend url %q: %w", b, err)
		}
		backends = append(backends, b)
	}
	cfg.Backends = backends
	ring, err := NewRing(backends, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:       cfg,
		ring:      ring,
		start:     time.Now(),
		counters:  make(map[string]*backendCounters, len(backends)),
		breakers:  make(map[string]*breaker, len(backends)),
		latency:   make(map[string]*latencyTracker, len(backends)),
		budget:    newRetryBudget(cfg.RetryBudgetRatio, cfg.RetryBudgetBurst),
		placement: make(map[string]string),
	}
	for _, b := range backends {
		rt.counters[b] = &backendCounters{}
		rt.breakers[b] = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, nil)
		rt.latency[b] = &latencyTracker{}
	}
	rt.checker = NewChecker(backends, cfg.HealthInterval, cfg.HealthClient, rt.noteTransition)
	rt.mux = http.NewServeMux()
	rt.routes()
	return rt, nil
}

// Start runs the initial health sweep and launches background polling.
func (rt *Router) Start() {
	rt.CheckNow()
	rt.checker.Start()
}

// CheckNow forces one synchronous health sweep (tests use it instead
// of waiting out the polling interval).
func (rt *Router) CheckNow() { rt.checker.CheckNow(nil) }

// Close stops the health checker.
func (rt *Router) Close() { rt.checker.Close() }

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

func (rt *Router) routes() {
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /v1/healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /v1/stats", rt.handleStats)
	rt.mux.HandleFunc("GET /v1/models", rt.handleList)
	rt.mux.HandleFunc("POST /v1/models", rt.handleCreate)
	rt.mux.HandleFunc("POST /v1/batch/plan", rt.handleBatchPlan)
	// Every model-scoped route forwards to the model's owner; the
	// backend enforces methods and sub-route shapes.
	rt.mux.HandleFunc("/v1/models/{id}", rt.handleModel)
	rt.mux.HandleFunc("/v1/models/{id}/{op}", rt.handleModel)
}

// noteTransition is the checker's edge hook; see the placement field
// for the invalidation rules.
func (rt *Router) noteTransition(member string, up bool) {
	rt.mu.Lock()
	for id, m := range rt.placement {
		if (!up && m == member) || (up && rt.ring.Owner(id) == member) {
			delete(rt.placement, id)
		}
	}
	rt.mu.Unlock()
	if rt.cfg.Logger != nil {
		dir := "down"
		if up {
			dir = "up"
		}
		rt.cfg.Logger.Printf("backend %s is %s", member, dir)
	}
}

// score ranks a failover candidate from a snapshot of its live state:
// the fewer models it already serves and the fewer router requests are
// in flight against it, the better. Scored at decision time from
// observed state — not from a static assignment — so failover load
// spreads to whichever successor is actually lightest.
func (rt *Router) score(member string) float64 {
	st := rt.checker.State(member)
	return float64(st.Models) + 16*float64(rt.counters[member].inflight.Load())
}

// routable reports whether a member may receive model traffic right
// now: health-checked ready AND its circuit breaker would admit a
// request. The breaker check is the non-consuming WouldAllow — merely
// being considered as a candidate must not burn the one half-open
// probe slot; the actual Allow is consumed by send.
func (rt *Router) routable(member string) bool {
	return rt.checker.Ready(member) && rt.breakers[member].WouldAllow()
}

// ownerFor picks the backend serving a model ID: the sticky placement
// while it stays routable, else the ring owner, else the best-scoring
// routable successor among the ID's candidates. It returns "" when no
// candidate is routable.
func (rt *Router) ownerFor(id string) string {
	cands := rt.ring.Candidates(id, rt.cfg.Replicas)

	rt.mu.Lock()
	if m, ok := rt.placement[id]; ok && rt.routable(m) {
		rt.mu.Unlock()
		return m
	}
	rt.mu.Unlock()

	choice := ""
	if rt.routable(cands[0]) {
		choice = cands[0]
	} else {
		best := -1.0
		for _, m := range cands[1:] {
			if !rt.routable(m) {
				continue
			}
			if s := rt.score(m); best < 0 || s < best {
				best, choice = s, m
			}
		}
		if choice != "" && rt.cfg.Logger != nil {
			rt.cfg.Logger.Printf("model %q: owner %s not ready, failing over to %s", id, cands[0], choice)
		}
	}
	if choice != "" {
		rt.mu.Lock()
		rt.placement[id] = choice
		rt.mu.Unlock()
	}
	return choice
}

// dropPlacement removes a (failed) placement so the next request picks
// a new backend.
func (rt *Router) dropPlacement(id, member string) {
	rt.mu.Lock()
	if rt.placement[id] == member {
		delete(rt.placement, id)
	}
	rt.mu.Unlock()
}

// writeError emits the backend error envelope shape, so router-origin
// failures are indistinguishable in structure from backend ones.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]string{"code": code, "message": msg},
	})
}

// send issues one attempt of the request against the member: it
// consumes the member's breaker admission, issues the HTTP call, and
// feeds the outcome back into the breaker and (on success) the
// latency tracker. The caller owns resp.Body. A breaker denial
// surfaces as errBreakerOpen — a transport-shaped failure, so callers
// fail over exactly as they would on a refused connection.
//
// Failure, for the breaker, is a transport error or a 5xx: the
// backend did not produce an answer. 4xx (shed 429 included) is the
// backend working as designed. A transport error caused by our own
// context being cancelled (a lost hedge race, a gone client) reports
// nothing — it says nothing about the backend's health.
func (rt *Router) send(ctx context.Context, r *http.Request, member string, body []byte) (*http.Response, error) {
	br := rt.breakers[member]
	if !br.Allow() {
		return nil, errBreakerOpen
	}
	c := rt.counters[member]
	c.forwarded.Add(1)
	c.inflight.Add(1)
	defer c.inflight.Add(-1)

	u := member + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else if r.Body != nil && r.Method != http.MethodGet && r.Method != http.MethodHead {
		rd = r.Body
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, u, rd)
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	start := time.Now()
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			c.errors.Add(1)
			br.Report(false)
		}
		return nil, err
	}
	if resp.StatusCode >= 500 {
		br.Report(false)
	} else {
		br.Report(true)
		rt.latency[member].note(time.Since(start))
	}
	return resp, nil
}

// copyResponse streams one backend response to the client, stamped
// with which backend answered and whether the hedge delivered it.
func copyResponse(w http.ResponseWriter, resp *http.Response, member string, hedged bool) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Gridstrat-Backend", member)
	if hedged {
		w.Header().Set("X-Gridstrat-Hedged", "1")
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// proxy forwards the request (with the given body, which may be nil)
// to the member and copies the response through. It reports transport
// failure; HTTP-level errors from the backend are passed to the caller
// verbatim and count as success here.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, member string, body []byte) error {
	resp, err := rt.send(r.Context(), r, member, body)
	if err != nil {
		return err
	}
	copyResponse(w, resp, member, false)
	return nil
}

// hedgeDelay resolves the member's current hedge trigger: the fixed
// configured delay, or (in the default auto mode) the member's rolling
// p95 latency — hedge only requests already slower than 95% of their
// recent peers. Negative means hedging is off.
func (rt *Router) hedgeDelay(member string) time.Duration {
	if rt.cfg.HedgeDelay != 0 {
		return rt.cfg.HedgeDelay
	}
	if p, ok := rt.latency[member].p95(); ok {
		if p < time.Millisecond {
			p = time.Millisecond
		}
		return p
	}
	return 50 * time.Millisecond // cold-start default until samples accrue
}

// proxyHedged forwards an idempotent read, duplicating it to a second
// connection of the same member if the primary has not answered
// within the hedge delay; the first response wins and the loser is
// cancelled. The same member, deliberately: a model is single-homed,
// so a successor would only answer 404 — what the hedge covers is a
// slow *connection* (GC pause, a stalled accept queue, an injected
// latency spike), the exact per-attempt variance the paper's
// Multiple(b=2) strategy pays one extra submission to cut, applied
// here to proxied reads. Hedges spend a retry-budget token, so a
// uniformly slow fleet degrades to single attempts instead of
// doubling its own load.
func (rt *Router) proxyHedged(w http.ResponseWriter, r *http.Request, member string) error {
	delay := rt.hedgeDelay(member)
	if delay < 0 {
		return rt.proxy(w, r, member, nil)
	}
	type attempt struct {
		resp  *http.Response
		err   error
		hedge bool
		idx   int
	}
	// Each attempt owns its context: cancelling one must not abort the
	// other's in-flight body read (net/http kills Body reads when the
	// request context is cancelled, which would truncate the winner's
	// response mid-copy).
	var cancels [2]context.CancelFunc
	defer func() {
		for _, c := range cancels {
			if c != nil {
				c()
			}
		}
	}()
	ch := make(chan attempt, 2) // buffered: the loser must never block
	launch := func(idx int, hedge bool) {
		ctx, cancel := context.WithCancel(r.Context())
		cancels[idx] = cancel
		go func() {
			resp, err := rt.send(ctx, r, member, nil)
			ch <- attempt{resp, err, hedge, idx}
		}()
	}
	launch(0, false)
	pending, hedgeable := 1, true
	timer := time.NewTimer(delay)
	defer timer.Stop()

	var firstErr error
	for pending > 0 {
		select {
		case <-timer.C:
			if !hedgeable {
				continue
			}
			hedgeable = false
			if !rt.budget.take() {
				rt.retriesDenied.Add(1)
				continue
			}
			rt.hedged.Add(1)
			launch(1, true)
			pending++
		case a := <-ch:
			pending--
			if a.err != nil {
				cancels[a.idx]()
				if firstErr == nil {
					firstErr = a.err
				}
				continue
			}
			if a.hedge {
				rt.hedgeWins.Add(1)
			}
			// Cancel only the losing attempt — its send reports nothing.
			// The winner's context stays live until its body has been
			// copied through (the deferred sweep releases it then).
			for j, c := range cancels {
				if j != a.idx && c != nil {
					c()
				}
			}
			if pending > 0 {
				go func(n int) { // reap the loser's response, if any
					for i := 0; i < n; i++ {
						if la := <-ch; la.resp != nil {
							la.resp.Body.Close()
						}
					}
				}(pending)
			}
			copyResponse(w, a.resp, member, a.hedge)
			return nil
		}
	}
	return firstErr
}

// handleModel forwards a model-scoped request to its owner. A
// transport failure (an open breaker included) drops the placement
// and retries once on the next pick — if the retry budget grants it;
// idempotent reads additionally hedge inside each attempt (see
// proxyHedged). Bodyless writes answer 502 immediately (the client
// owns the retry decision for non-idempotent requests).
func (rt *Router) handleModel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	isRead := r.Method == http.MethodGet || r.Method == http.MethodHead
	// Buffer small write bodies so a retried pick can resend them; a
	// model-scoped request body is a planning query, not a trace
	// upload, so this stays cheap.
	var body []byte
	if r.Body != nil && !isRead {
		buf := getProxyBuf()
		defer putProxyBuf(buf)
		if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)); err != nil {
			writeError(w, http.StatusRequestEntityTooLarge, "too_large", err.Error())
			return
		}
		body = buf.Bytes()
	}
	rt.budget.earn()
	for attempt := 0; ; attempt++ {
		member := rt.ownerFor(id)
		if member == "" {
			writeError(w, http.StatusServiceUnavailable, "no_backend",
				fmt.Sprintf("no ready backend for model %q", id))
			return
		}
		var err error
		if isRead {
			err = rt.proxyHedged(w, r, member)
		} else {
			err = rt.proxy(w, r, member, body)
		}
		if err == nil {
			return
		}
		rt.dropPlacement(id, member)
		if attempt == 0 && (isRead || body != nil) {
			// One failover retry: safe for reads, and safe for writes
			// too because nothing was written — the transport error
			// means the request never reached a backend handler, or the
			// response never came back; observation batches are the only
			// non-idempotent case and the backend's at-most-once ack
			// contract covers a duplicated delivery no worse than a
			// client-side retry would. The retry spends a budget token:
			// under a fleet-wide brownout the budget drains and failover
			// stops amplifying the load.
			if rt.budget.take() {
				continue
			}
			rt.retriesDenied.Add(1)
		}
		writeError(w, http.StatusBadGateway, "bad_gateway",
			fmt.Sprintf("backend %s: %v", member, err))
		return
	}
}

// handleCreate routes POST /v1/models: the model ID decides the owner,
// so the router buffers the body far enough to learn it (JSON bodies
// carry it inline; raw trace uploads carry it in ?id=).
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	buf := getProxyBuf()
	defer putProxyBuf(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)); err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "too_large", err.Error())
		return
	}
	body := buf.Bytes()
	id := r.URL.Query().Get("id")
	if id == "" {
		var probe struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &probe); err == nil {
			id = probe.ID
		}
	}
	if id == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "missing model id")
		return
	}
	member := rt.ownerFor(id)
	if member == "" {
		writeError(w, http.StatusServiceUnavailable, "no_backend",
			fmt.Sprintf("no ready backend for model %q", id))
		return
	}
	rt.budget.earn()
	if err := rt.proxy(w, r, member, body); err != nil {
		rt.dropPlacement(id, member)
		writeError(w, http.StatusBadGateway, "bad_gateway",
			fmt.Sprintf("backend %s: %v", member, err))
	}
}

// fanout issues one GET against every backend concurrently and
// collects the decoded bodies. Unready backends are skipped and
// reported as failed; a transport or decode failure likewise lands in
// the failed map instead of sinking the whole response.
func fanout[T any](rt *Router, r *http.Request, path string) (map[string]T, map[string]string) {
	results := make(map[string]T, len(rt.cfg.Backends))
	failed := make(map[string]string)
	// Partition before spawning anything: once a goroutine is running,
	// every write to the failed map must go through mu, including the
	// unready markers.
	var ready []string
	for _, b := range rt.cfg.Backends {
		if !rt.checker.Ready(b) {
			st := rt.checker.State(b)
			msg := st.Error
			if msg == "" {
				msg = "not ready"
			}
			failed[b] = msg
			continue
		}
		ready = append(ready, b)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, b := range ready {
		wg.Add(1)
		go func(b string) {
			defer wg.Done()
			c := rt.counters[b]
			c.forwarded.Add(1)
			c.inflight.Add(1)
			defer c.inflight.Add(-1)
			var out T
			err := rt.getJSON(r, b+path, &out)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				c.errors.Add(1)
				failed[b] = err.Error()
				return
			}
			results[b] = out
		}(b)
	}
	wg.Wait()
	return results, failed
}

// getJSON issues one GET (propagating the inbound request context) and
// decodes the 200 body.
func (rt *Router) getJSON(r *http.Request, u string, out any) error {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// ListResponse is the router's GET /v1/models body: the union of every
// ready backend's models (sorted by ID), plus the partial-failure
// report. A single-node client decoding only {models} keeps working.
type ListResponse struct {
	Models  []server.ModelInfo `json:"models"`
	Partial bool               `json:"partial,omitempty"`
	Failed  map[string]string  `json:"failed_backends,omitempty"`
}

func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	results, failed := fanout[server.ListModelsResponse](rt, r, "/v1/models")
	resp := ListResponse{Models: []server.ModelInfo{}}
	for _, lr := range results {
		resp.Models = append(resp.Models, lr.Models...)
	}
	sort.Slice(resp.Models, func(i, j int) bool { return resp.Models[i].ID < resp.Models[j].ID })
	if len(failed) > 0 {
		resp.Partial, resp.Failed = true, failed
	}
	writeJSON(w, http.StatusOK, resp)
}

// BackendStats is one backend's slice of the router stats response.
// Breaker and BreakerTransitions are router-side (this router's
// breaker over that backend); Resilience is the backend's own
// admission/degradation counters, passed through.
type BackendStats struct {
	Healthy            bool                   `json:"healthy"`
	Ready              bool                   `json:"ready"`
	Forwarded          uint64                 `json:"forwarded"`
	Errors             uint64                 `json:"errors"`
	Breaker            string                 `json:"breaker"` // "closed", "open" or "half_open"
	BreakerTransitions uint64                 `json:"breaker_transitions"`
	Models             int                    `json:"models"`
	Totals             server.ShardStats      `json:"totals"`
	Resilience         server.ResilienceStats `json:"resilience"`
	Batch              server.BatchStats      `json:"batch"`
}

// StatsResponse is the router's GET /v1/stats body: per-backend router
// counters plus the fleet-wide sums — every backend's registry totals,
// and every backend's resilience counters (so shed-per-class and
// degraded responses are readable at one place for the whole fleet),
// plus the router's own hedging and retry-budget tallies.
type StatsResponse struct {
	UptimeS       float64                 `json:"uptime_s"`
	Models        int                     `json:"models"`
	Backends      map[string]BackendStats `json:"backends"`
	Totals        server.ShardStats       `json:"totals"`
	Resilience    server.ResilienceStats  `json:"resilience"`
	Batch         server.BatchStats       `json:"batch"`
	Hedged        uint64                  `json:"hedged_requests"`
	HedgeWins     uint64                  `json:"hedge_wins"`
	RetriesDenied uint64                  `json:"retries_denied"`
	Partial       bool                    `json:"partial,omitempty"`
	Failed        map[string]string       `json:"failed_backends,omitempty"`
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	results, failed := fanout[server.StatsResponse](rt, r, "/v1/stats")
	resp := StatsResponse{
		UptimeS:       time.Since(rt.start).Seconds(),
		Backends:      make(map[string]BackendStats, len(rt.cfg.Backends)),
		Hedged:        rt.hedged.Load(),
		HedgeWins:     rt.hedgeWins.Load(),
		RetriesDenied: rt.retriesDenied.Load(),
	}
	for _, b := range rt.cfg.Backends {
		st := rt.checker.State(b)
		brState, brTransitions := rt.breakers[b].Status()
		bs := BackendStats{
			Healthy:            st.Healthy,
			Ready:              st.Ready,
			Forwarded:          rt.counters[b].forwarded.Load(),
			Errors:             rt.counters[b].errors.Load(),
			Breaker:            brState,
			BreakerTransitions: brTransitions,
		}
		if sr, ok := results[b]; ok {
			bs.Models = sr.Models
			bs.Totals = sr.Totals
			bs.Resilience = sr.Resilience
			bs.Batch = sr.Batch
			resp.Models += sr.Models
			server.AddShardStats(&resp.Totals, sr.Totals)
			server.AddResilienceStats(&resp.Resilience, sr.Resilience)
			server.AddBatchStats(&resp.Batch, sr.Batch)
		}
		resp.Backends[b] = bs
	}
	if len(failed) > 0 {
		resp.Partial, resp.Failed = true, failed
	}
	writeJSON(w, http.StatusOK, resp)
}

// HealthResponse is the router's healthz body: "ok" when every backend
// is ready, "degraded" otherwise (the router itself stays up — a
// degraded cluster still serves the models on live backends).
type HealthResponse struct {
	Status   string                  `json:"status"`
	Version  string                  `json:"version"`
	UptimeS  float64                 `json:"uptime_s"`
	Backends map[string]BackendState `json:"backends"`
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap := rt.checker.Snapshot()
	status := "ok"
	for _, st := range snap {
		if !(st.Healthy && st.Ready) {
			status = "degraded"
			break
		}
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   status,
		Version:  RouterVersion,
		UptimeS:  time.Since(rt.start).Seconds(),
		Backends: snap,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
