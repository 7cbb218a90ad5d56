package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"gridstrat/internal/chaos"
)

// Admission-control tests: SLO-class shedding, deadline propagation
// and degraded-mode serving. Chaos latency injection sits inside the
// admission gate, so an injected delay holds its slot exactly like a
// genuinely slow computation — the tests use that to fill the gate
// deterministically.

// classGet issues one GET with an explicit SLO class (empty = none)
// and returns the response; the body is decoded into the error
// envelope when non-2xx.
func classGet(t *testing.T, hc *http.Client, url, class string) (*http.Response, ErrorEnvelope) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if class != "" {
		req.Header.Set(ClassHeader, class)
	}
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var env ErrorEnvelope
	if resp.StatusCode >= 300 {
		_ = json.NewDecoder(resp.Body).Decode(&env)
	}
	return resp, env
}

// TestAdmissionShedByClass fills a MaxInflight=2 gate with two slow
// critical requests (chaos latency holds their slots), then verifies
// each class is shed at its own ceiling: sheddable and standard past
// their fractional limits, critical only at the hard cap — all with
// 429 + Retry-After — and that the per-class counters land in
// /v1/stats.
func TestAdmissionShedByClass(t *testing.T) {
	// The first two GETs on the model are delayed 400ms inside the
	// admission gate; every later request passes untouched.
	sc := chaos.Scenario{Seed: 1, Rules: []chaos.Rule{{
		Name: "hold", PathPrefix: "/v1/models/hold-", Method: http.MethodGet,
		Fault: chaos.FaultLatency, Latency: 400 * time.Millisecond, At: []int{1, 2},
	}}}
	s, hs, c := newTestServerCfg(t, Config{MaxInflight: 2, Chaos: &sc})
	ctx := context.Background()
	if _, err := c.CreateModel(ctx, CreateModelRequest{ID: "hold-m", Dataset: "2006-IX"}); err != nil {
		t.Fatalf("create: %v", err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := classGet(t, hs.Client(), hs.URL+"/v1/models/hold-m", "critical")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("holder request: want 200, got %d", resp.StatusCode)
			}
		}()
	}
	// Wait until both holders occupy their admission slots.
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.inflight.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("holders never filled the gate")
		}
		time.Sleep(time.Millisecond)
	}

	// With 2 in flight against a cap of 2: sheddable (limit 1) and
	// standard (limit 1) shed, and critical sheds too — the hard cap
	// is full.
	for _, tc := range []struct{ class string }{
		{"sheddable"}, {"standard"}, {"critical"},
	} {
		resp, env := classGet(t, hs.Client(), hs.URL+"/v1/models/hold-m", tc.class)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s over the gate: want 429, got %d", tc.class, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != "1" {
			t.Fatalf("%s shed Retry-After: want %q, got %q", tc.class, "1", got)
		}
		if env.Error.Code != "shed" {
			t.Fatalf("%s shed code: want shed, got %q", tc.class, env.Error.Code)
		}
	}

	wg.Wait()
	// The gate drained: a critical request passes again (case folding
	// on the header value included).
	resp, _ := classGet(t, hs.Client(), hs.URL+"/v1/models/hold-m", "Critical")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after drain: want 200, got %d", resp.StatusCode)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	res := stats.Resilience
	if res.ShedSheddable != 1 || res.ShedStandard != 1 || res.ShedCritical != 1 {
		t.Fatalf("shed counters: want 1/1/1, got critical=%d standard=%d sheddable=%d",
			res.ShedCritical, res.ShedStandard, res.ShedSheddable)
	}
	// create + 2 holders + the drain probe were admitted.
	if res.AdmittedTotal < 4 {
		t.Fatalf("admitted_total: want >= 4, got %d", res.AdmittedTotal)
	}
}

// TestAdmissionRejectsBadHeaders: unknown classes and malformed
// deadlines are caller bugs, answered 400 — not silently defaulted.
func TestAdmissionRejectsBadHeaders(t *testing.T) {
	_, hs, _ := newTestServerCfg(t, Config{MaxInflight: 4})

	get := func(class, deadline string) (*http.Response, ErrorEnvelope) {
		req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/models", nil)
		if class != "" {
			req.Header.Set(ClassHeader, class)
		}
		if deadline != "" {
			req.Header.Set(DeadlineHeader, deadline)
		}
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env ErrorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return resp, env
	}

	for _, tc := range []struct{ class, deadline string }{
		{"bogus", ""},
		{"", "abc"},
		{"", "-5"},
		{"", "0"},
		{"", "99999999999999"}, // past the 24h ceiling
	} {
		resp, env := get(tc.class, tc.deadline)
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != "bad_request" {
			t.Fatalf("class=%q deadline=%q: want 400 bad_request, got %d %q",
				tc.class, tc.deadline, resp.StatusCode, env.Error.Code)
		}
	}
	if resp, _ := get("sheddable", "5000"); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid class+deadline: want 200, got %d", resp.StatusCode)
	}
}

// TestDeadlineHeaderAborts504: a deadline far under the work's cost
// turns into a context deadline, and the abandoned computation
// answers 504 deadline_exceeded. At t∞ = 125 s only ~1.25% of 2006-IX
// submissions start in time, so each of the 2M runs resubmits ~80
// times: ~1.2 s of work on a 2-core Xeon, 60 times the 20 ms deadline
// (at t∞ = 900 s the same runs could finish inside it).
func TestDeadlineHeaderAborts504(t *testing.T) {
	_, hs, c := newTestServerCfg(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateModel(ctx, CreateModelRequest{ID: "m", Dataset: "2006-IX"}); err != nil {
		t.Fatalf("create: %v", err)
	}

	body, _ := json.Marshal(SimulateRequest{
		Strategy: StrategySpec{Strategy: "single", TInfS: 125},
		Runs:     2_000_000,
	})
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/models/m/simulate",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(DeadlineHeader, "20")
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	defer resp.Body.Close()
	var env ErrorEnvelope
	_ = json.NewDecoder(resp.Body).Decode(&env)
	if resp.StatusCode != http.StatusGatewayTimeout || env.Error.Code != "deadline_exceeded" {
		t.Fatalf("want 504 deadline_exceeded, got %d %q", resp.StatusCode, env.Error.Code)
	}
}

// TestDegradedRecovering: while the boot WAL replay is in flight,
// model-scoped queries restore their model on demand and answer
// degraded ("recovering") instead of 503; registry-wide routes still
// refuse. After Recover the same query is clean.
func TestDegradedRecovering(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{WALDir: dir, WALSync: "none"}
	s1 := recoverServer(t, cfg)
	if _, err := s1.Registry().Put("m", "test", 4000, synthTrace("m", 60, 3, 1)); err != nil {
		t.Fatalf("Put: %v", err)
	}

	// "Crash" s1; boot a replacement but do NOT run its replay.
	s2, hs, c := newTestServerCfg(t, cfg)
	ctx := context.Background()
	if !s2.Recovering() {
		t.Fatal("WAL-backed server should boot recovering")
	}
	if _, err := c.ListModels(ctx); err == nil {
		t.Fatal("list should 503 while recovering")
	}
	info, err := c.GetModel(ctx, "m", 0)
	if err != nil {
		t.Fatalf("model-scoped GET while recovering: %v", err)
	}
	if !info.Degraded || info.DegradedReason != "recovering" {
		t.Fatalf("want degraded recovering, got degraded=%v reason=%q",
			info.Degraded, info.DegradedReason)
	}
	// An absent model is a real 404 even mid-replay: the durable store
	// is consulted directly.
	if _, err := c.GetModel(ctx, "nope", 0); err == nil {
		t.Fatal("absent model should 404 mid-replay")
	}

	if err := s2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	info, err = c.GetModel(ctx, "m", 0)
	if err != nil {
		t.Fatalf("GET after recover: %v", err)
	}
	if info.Degraded {
		t.Fatalf("recovered server should serve clean, got reason %q", info.DegradedReason)
	}
	_ = hs

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Resilience.DegradedResponses == 0 {
		t.Fatal("degraded_responses counter should have advanced")
	}
}

// TestDegradedBacklog: acknowledged records queued past the staleness
// threshold mark query answers degraded ("backlog"); a sync drain
// clears the flag.
func TestDegradedBacklog(t *testing.T) {
	_, _, c := newTestServerCfg(t, Config{RebuildInterval: time.Hour, DegradedPending: 1})
	ctx := context.Background()
	if _, err := c.CreateModel(ctx, CreateModelRequest{ID: "m", Dataset: "2006-IX"}); err != nil {
		t.Fatalf("create: %v", err)
	}

	obs, err := c.Observe(ctx, "m", ObserveRequest{Latencies: []float64{100, 200, 300}})
	if err != nil {
		t.Fatalf("observe: %v", err)
	}
	if obs.Pending == 0 {
		t.Fatal("async ack should leave a queue")
	}
	info, err := c.GetModel(ctx, "m", 0)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !info.Degraded || info.DegradedReason != "backlog" {
		t.Fatalf("want degraded backlog, got degraded=%v reason=%q",
			info.Degraded, info.DegradedReason)
	}

	if _, err := c.Observe(ctx, "m", ObserveRequest{Latencies: []float64{150}, Sync: true}); err != nil {
		t.Fatalf("sync observe: %v", err)
	}
	info, err = c.GetModel(ctx, "m", 0)
	if err != nil {
		t.Fatalf("get after drain: %v", err)
	}
	if info.Degraded {
		t.Fatalf("drained entry should serve clean, got reason %q", info.DegradedReason)
	}
}

// TestDegradedMemoryPressure: a pressure-demoted model answers with
// its sketch and says so; a model that is sketch-tier by policy is
// serving its normal representation and is not degraded.
func TestDegradedMemoryPressure(t *testing.T) {
	if os.Getenv("GRIDSTRAT_SKETCH_TIER") == "1" {
		t.Skip("forced sketch tier makes every model policy-sketched")
	}
	s, _, c := newTestServer(t)
	ctx := context.Background()
	if _, err := c.CreateModel(ctx, CreateModelRequest{ID: "m", Dataset: "2006-IX"}); err != nil {
		t.Fatalf("create: %v", err)
	}
	e, err := s.Registry().Get("m")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !e.demote() {
		t.Fatal("demote returned false")
	}
	info, err := c.GetModel(ctx, "m", 0)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if info.Tier != "sketch" {
		t.Fatalf("demoted tier: want sketch, got %q", info.Tier)
	}
	if !info.Degraded || info.DegradedReason != "memory_pressure" {
		t.Fatalf("want degraded memory_pressure, got degraded=%v reason=%q",
			info.Degraded, info.DegradedReason)
	}

	// Policy-sketched models are not degraded: the sketch is their
	// normal representation, not a pressure fallback.
	_, _, cp := newTestServerCfg(t, Config{SketchTier: true})
	if _, err := cp.CreateModel(ctx, CreateModelRequest{ID: "p", Dataset: "2006-IX"}); err != nil {
		t.Fatalf("create policy-sketch: %v", err)
	}
	pinfo, err := cp.GetModel(ctx, "p", 0)
	if err != nil {
		t.Fatalf("get policy-sketch: %v", err)
	}
	if pinfo.Tier != "sketch" || pinfo.Degraded {
		t.Fatalf("policy sketch: want clean sketch, got tier=%q degraded=%v reason=%q",
			pinfo.Tier, pinfo.Degraded, pinfo.DegradedReason)
	}
}

// TestClientRetryHonorsRetryAfterAndBudget: the client surfaces the
// Retry-After hint on a shed response, retries idempotent GETs on
// 429, and gives up retrying once its wall-clock budget would be
// overrun.
func TestClientRetryHonorsRetryAfterAndBudget(t *testing.T) {
	// A stub that sheds the first GET with Retry-After: 1 and serves
	// the second.
	var calls int
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":{"code":"shed","message":"full"}}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok","version":"t","models":0,"uptime_s":1,"wal":"disabled"}`))
	}))
	defer stub.Close()

	// Budget 100ms < the 1s Retry-After ask: the retry must NOT be
	// attempted, and the 429 surfaces with its hint parsed.
	c := NewClient(stub.URL, stub.Client()).WithRetry(RetryPolicy{
		MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, Budget: 100 * time.Millisecond,
	})
	_, err := c.Health(context.Background())
	var apiErr *APIError
	if err == nil || !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d", apiErr.Status)
	}
	if apiErr.RetryAfter != time.Second {
		t.Fatalf("RetryAfter: want 1s, got %v", apiErr.RetryAfter)
	}
	if calls != 1 {
		t.Fatalf("budget-bound client should not have retried; %d calls", calls)
	}

	// With budget to spare the client sleeps the server's ask and the
	// retry succeeds.
	calls = 0
	c = NewClient(stub.URL, stub.Client()).WithRetry(RetryPolicy{
		MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, Budget: 5 * time.Second,
	})
	start := time.Now()
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("retried GET: %v", err)
	}
	if calls != 2 {
		t.Fatalf("want 2 calls, got %d", calls)
	}
	if waited := time.Since(start); waited < time.Second {
		t.Fatalf("client ignored the Retry-After ask; waited only %v", waited)
	}
}
