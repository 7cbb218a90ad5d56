package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridstrat"
	"gridstrat/internal/server"
)

// opKind is the class of one benchmark operation.
type opKind int

const (
	// opRecommend is a single POST /v1/models/{id}/recommend — the
	// timed class of plan_sweep.
	opRecommend opKind = iota
	// opBatch is one POST /v1/batch/plan.
	opBatch
	// opRefresh is an observation batch (sync) followed by an
	// option-free recommend on the same model — the timed class of
	// ingest_churn.
	opRefresh
)

// op is one pre-generated operation. Request bodies are marshaled
// before the timed phase, so the clients only send and read.
type op struct {
	kind  opKind
	model string
	opts  *server.Options    // recommend options; nil = option-free
	items []server.BatchItem // opBatch
	path  string
	body  []byte
	path2 string // opRefresh: the follow-up recommend
	body2 []byte
}

// result is what a client recorded for one operation. It holds no
// pointers, so a long run's results cost the garbage collector
// nothing to scan.
type result struct {
	lat    time.Duration
	status int32 // HTTP status of the last request; 0 on a transport error
}

func (r result) ok() bool { return r.status == http.StatusOK }

// kept is an operation's response bodies, retained when the workload
// checks every answer after the run.
type kept struct {
	body, body2 []byte
}

// phaseRun is the outcome of one closed-loop pass over a sequence.
type phaseRun struct {
	res    []result
	kept   []kept        // nil unless bodies were kept
	errs   map[int]error // transport errors by op index
	rounds []time.Duration
	wall   time.Duration
}

// firstError describes the first failed operation, or returns nil.
func (p *phaseRun) firstError() error {
	for i, r := range p.res {
		if !r.ok() {
			return fmt.Errorf("op %d: status %d: %v", i, r.status, p.errs[i])
		}
	}
	return nil
}

// workload defines one traffic mix.
type workload struct {
	name    string
	clients int
	// opsPerSecond sizes the timed phase: it runs round(opsPerSecond ×
	// --seconds) operations, a fixed count, calibrated so the phase
	// lasts about --seconds on a 2-core x86-64 host.
	opsPerSecond float64
	warmOps      int     // untimed operations after set-up
	sloMs        float64 // latency limit of slo_attain
	// Daemon configuration: -preload all, -max-inflight (0 = no
	// admission control) and a fresh -wal-dir per start.
	preload     bool
	maxInflight int
	useWAL      bool
	// setup prepares a ready daemon (models registered, caches warm,
	// window turned over); it is inside setup_s.
	setup func(ctx context.Context, c *client, g *generator) error
	// gen draws the next operation from the seeded generator.
	gen func(g *generator) *op
	// check verifies every answer outside the timed phase.
	check func(ctx context.Context, c *client, g *generator, ops []*op, run *phaseRun) error
}

// modelNames lists the 12 paper datasets the daemon preloads.
func modelNames() []string {
	var out []string
	for _, spec := range gridstrat.PaperDatasets() {
		out = append(out, spec.Name)
	}
	return out
}

// generator turns the workload seed into operations. Mixes are
// stratified — every block of draws covers its categories exactly
// once in a seeded order — so runs with different seeds do the same
// amount of each kind of work in a different order.
type generator struct {
	rng    *rand.Rand
	models []string

	perm    []int // current stratified block
	permPos int

	slotPos, slotAt int // odd-one-out block position and seeded slot

	// ingest_churn
	base    []float64 // completed latencies of the source dataset
	timeout float64
}

func newGenerator(seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), models: modelNames()}
}

// next draws from a stratified block of n categories.
func (g *generator) next(n int) int {
	if g.permPos >= len(g.perm) || len(g.perm) != n {
		g.perm = g.rng.Perm(n)
		g.permPos = 0
	}
	v := g.perm[g.permPos]
	g.permPos++
	return v
}

// odd reports whether the current draw is the seeded odd-one-out of
// its block of n draws (exactly one per block).
func (g *generator) odd(n int) bool {
	if g.slotPos == 0 {
		g.slotAt = g.rng.Intn(n)
	}
	hit := g.slotPos == g.slotAt
	g.slotPos = (g.slotPos + 1) % n
	return hit
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every benchmark request type marshals
	}
	return b
}

func recommendOp(model string, opts *server.Options) *op {
	return &op{
		kind:  opRecommend,
		model: model,
		opts:  opts,
		path:  "/v1/models/" + model + "/recommend",
		body:  mustJSON(server.RecommendRequest{Options: opts}),
	}
}

func batchOp(items []server.BatchItem) *op {
	return &op{
		kind:  opBatch,
		items: items,
		path:  "/v1/batch/plan",
		body:  mustJSON(server.BatchPlanRequest{Items: items}),
	}
}

// client is the benchmark's HTTP client: keep-alive connections to
// one daemon, with a dial counter for the connection-reuse ratio.
type client struct {
	base  string
	hc    *http.Client
	dials atomic.Int64
}

func newClient(base string, conns int) *client {
	c := &client{base: base}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxIdleConns:        conns + 4,
		MaxIdleConnsPerHost: conns + 4,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	c.hc = &http.Client{Transport: tr, Timeout: 2 * time.Minute}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one JSON POST and reads the whole response into buf.
func (c *client) post(ctx context.Context, path string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// postJSON is post plus a decode of a 200 answer into out.
func (c *client) postJSON(ctx context.Context, path string, in, out any) error {
	var buf bytes.Buffer
	status, err := c.post(ctx, path, mustJSON(in), &buf)
	if err != nil {
		return err
	}
	if status != http.StatusOK && status != http.StatusCreated {
		return fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(buf.Bytes()))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(buf.Bytes(), out)
}

// do runs one operation and records its outcome; with k non-nil it
// keeps the response bodies there.
func (c *client) do(ctx context.Context, o *op, k *kept, buf *bytes.Buffer) (result, error) {
	start := time.Now()
	status, err := c.post(ctx, o.path, o.body, buf)
	if err == nil && status == http.StatusOK && o.kind == opRefresh {
		if k != nil {
			k.body = bytes.Clone(buf.Bytes())
		}
		status, err = c.post(ctx, o.path2, o.body2, buf)
		if k != nil {
			k.body2 = bytes.Clone(buf.Bytes())
		}
	} else if k != nil {
		k.body = bytes.Clone(buf.Bytes())
	}
	res := result{lat: time.Since(start), status: int32(status)}
	if err != nil {
		res.status = 0
	}
	return res, err
}

// runClosedLoop sends ops from n clients, each sending its next
// operation only after the previous one completed. The sequence is
// cut into the given number of consecutive rounds; within a round the
// clients share one queue, so all of them stay busy until the round's
// operations are exhausted, and the next round starts when the last
// one completes.
func runClosedLoop(ctx context.Context, c *client, n, rounds int, ops []*op, keep bool) *phaseRun {
	p := &phaseRun{res: make([]result, len(ops)), errs: map[int]error{}}
	if keep {
		p.kept = make([]kept, len(ops))
	}
	if rounds < 1 || rounds > len(ops) {
		rounds = 1
	}
	var mu sync.Mutex
	start := time.Now()
	for r := 0; r < rounds; r++ {
		lo, hi := r*len(ops)/rounds, (r+1)*len(ops)/rounds
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		rs := time.Now()
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				for {
					i := int(next.Add(1)) - 1
					if i >= hi {
						return
					}
					var k *kept
					if keep {
						k = &p.kept[i]
					}
					res, err := c.do(ctx, ops[i], k, &buf)
					p.res[i] = res
					if err != nil {
						mu.Lock()
						p.errs[i] = err
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		p.rounds = append(p.rounds, time.Since(rs))
	}
	p.wall = time.Since(start)
	return p
}

// percentile returns the nearest-rank q-quantile of sorted samples
// and the number of samples above it.
func percentile(sorted []float64, q float64) (float64, int) {
	n := len(sorted)
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	return sorted[k-1], n - k
}

// median is the exact median of sorted samples.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tail returns the highest of p99, p95 and p90 with at least ten
// samples beyond it, and names it. A run too short for that reports
// p90 anyway and says how few samples lie beyond it.
func tail(sorted []float64) (float64, string) {
	for _, q := range []struct {
		q    float64
		name string
	}{{0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}} {
		if v, beyond := percentile(sorted, q.q); beyond >= 10 {
			return v, q.name
		}
	}
	v, beyond := percentile(sorted, 0.90)
	return v, fmt.Sprintf("p90 with only %d samples beyond", beyond)
}

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// medianOf returns the median of unsorted values.
func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return median(s)
}
