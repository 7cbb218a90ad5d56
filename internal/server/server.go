package server

import (
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"gridstrat"
	"gridstrat/internal/chaos"
	"gridstrat/internal/trace"
	"gridstrat/internal/wal"
)

// Version identifies the service build; it is reported by /v1/healthz
// so operators (and the cluster router) can tell heterogeneous
// backends apart.
const Version = "0.8.0"

// Config tunes a Server. The zero value is usable: every field falls
// back to the default documented on it.
type Config struct {
	// Shards is the registry shard count (default 8).
	Shards int
	// MaxModels caps the registry size; inserting past it evicts the
	// least-recently-used model of the target shard (default 256).
	MaxModels int
	// DefaultWindow is the rolling-window width (seconds) of models
	// created without an explicit window_s (default 7 days — the
	// paper's weekly tuning granularity).
	DefaultWindow float64
	// MaxBodyBytes bounds request bodies, trace uploads included
	// (default 32 MiB).
	MaxBodyBytes int64
	// MaxRuns caps the per-request Monte Carlo run count
	// (default 2,000,000).
	MaxRuns int
	// MaxWorkers caps the per-request parallelism degree; larger
	// requests are clamped, not rejected (default GOMAXPROCS).
	MaxWorkers int
	// RebuildInterval decouples observation acks from model rebuilds:
	// when positive, batches are stamped, queued and acknowledged
	// immediately, and a per-entry worker coalesces everything queued
	// within the interval into one rebuild (bounded staleness; the
	// observations endpoint's sync flag forces an inline drain). Zero
	// (the default) keeps the synchronous rebuild-per-batch behaviour.
	RebuildInterval time.Duration
	// MaxQueuedRecords caps the acknowledged-but-unapplied records per
	// entry in async mode; a batch pushing the queue past the cap pays
	// for an inline coalesced drain (default 1,048,576).
	MaxQueuedRecords int
	// WALDir enables durable persistence: every model gets an
	// append-only observation log plus periodic compacted snapshots
	// under this directory, and Recover replays them on boot so a
	// restart loses no acknowledged state. Empty (the default) keeps
	// the registry memory-only.
	WALDir string
	// WALSync is the fsync policy for WAL appends: "always",
	// "interval" (the default) or "none".
	WALSync string
	// WALSyncInterval is the flush period of the "interval" policy
	// (default 100ms).
	WALSyncInterval time.Duration
	// WALSegmentBytes rotates WAL segments past this size
	// (default 4 MiB).
	WALSegmentBytes int64
	// SnapshotEvery compacts a model's log into a fresh snapshot after
	// this many appended records (default 4096), bounding both disk
	// use and replay time.
	SnapshotEvery int
	// MaxBytes caps the registry's estimated resident heap footprint
	// (window records + model representations + built tables). Past
	// the cap the coldest exact-tier models are demoted to the
	// quantile-sketch tier — on a durable server the window moves to
	// the WAL snapshot and drops from memory — and, once nothing is
	// left to demote, the coldest entries are evicted outright. Zero
	// (the default) disables byte-based tiering; MaxModels still
	// bounds the count.
	MaxBytes int64
	// SketchTier builds every model in the sketch tier from
	// registration on — the representation-parity CI toggle
	// (GRIDSTRAT_SKETCH_TIER=1 in the test helper).
	SketchTier bool
	// MaxInflight is the hard cap on concurrently admitted
	// /v1/models* requests; past class-specific fractions of it
	// (sheddable 50%, standard 90%, critical 100%) requests answer
	// 429 + Retry-After instead of queueing (see admission.go).
	// Zero (the default) disables admission control.
	MaxInflight int
	// DegradedPending is the acknowledged-but-unapplied record count
	// past which query responses on an entry are marked degraded
	// ("backlog") — the answer is still the last-good snapshot, but it
	// lags the acked data (default 4096).
	DegradedPending int
	// WALHooks injects append/fsync faults into the WAL (nil in
	// production) — the internal/chaos test seam.
	WALHooks *wal.Hooks
	// Chaos injects deterministic handler-level faults (latency,
	// resets, 5xx) per the scenario; nil disables. The CI chaos drill
	// arms it via gridstratd's -chaos flag.
	Chaos *chaos.Scenario
	// Logger receives one line per request; nil disables request
	// logging.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.MaxModels <= 0 {
		c.MaxModels = 256
	}
	if c.DefaultWindow <= 0 {
		c.DefaultWindow = 7 * 24 * 3600
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxRuns <= 0 {
		c.MaxRuns = 2_000_000
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 4096
	}
	if c.DegradedPending <= 0 {
		c.DegradedPending = 4096
	}
	return c
}

// Server is the gridstratd HTTP planning service: a model registry
// plus the route handlers of the /v1 API. Construct it with New, then
// serve Handler() with any http.Server. A Server is safe for
// concurrent use; all mutable state lives in the registry.
type Server struct {
	cfg   Config
	reg   *Registry
	mux   *http.ServeMux
	start time.Time
	adm   *admission

	// degradedCount tallies responses served with degraded: true (see
	// degradedOf for the conditions).
	degradedCount atomic.Uint64

	// recovering is true from construction (of a WAL-enabled server)
	// until Recover finishes; registry-wide routes (create, list,
	// delete) answer 503 and /v1/healthz reports "recovering" so a
	// cluster router can tell a booting backend from a dead one.
	// Model-scoped routes restore their model on demand and serve it
	// with degraded: "recovering" instead of refusing.
	recovering atomic.Bool
}

// New builds a Server with an empty registry. With Config.WALDir set
// the registry is durable: call Recover before (or concurrently with)
// serving to replay the persisted models.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:   cfg.withDefaults(),
		start: time.Now(),
	}
	s.adm = newAdmission(s.cfg.MaxInflight)
	s.reg = NewRegistry(s.cfg.Shards, s.cfg.MaxModels)
	s.reg.SetIngestPolicy(s.cfg.RebuildInterval, s.cfg.MaxQueuedRecords)
	s.reg.SetMemoryPolicy(s.cfg.MaxBytes, s.cfg.SketchTier)
	if s.cfg.WALDir != "" {
		policy, err := wal.ParseSyncPolicy(s.cfg.WALSync)
		if err != nil {
			return nil, err
		}
		store, err := wal.NewStore(s.cfg.WALDir, wal.Options{
			Sync:         policy,
			SyncEvery:    s.cfg.WALSyncInterval,
			SegmentBytes: s.cfg.WALSegmentBytes,
			Hooks:        s.cfg.WALHooks,
		})
		if err != nil {
			return nil, err
		}
		s.reg.SetWAL(store, s.cfg.SnapshotEvery)
		s.recovering.Store(true)
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// MustNew is New for configurations that cannot fail (no WAL); it
// panics on error. Tests and examples use it.
func MustNew(cfg Config) *Server {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Recover replays every persisted model from the WAL directory into
// the registry, then marks the server ready. On a WAL-less server it
// is a no-op. Models whose durable state cannot support a model (for
// example an async-mode window that crashed degenerate) are skipped
// with a log line; their files are left in place for inspection.
//
// Run it before accepting traffic, or concurrently with serving: model
// routes answer 503 service_unavailable until it returns.
func (s *Server) Recover() error {
	if s.reg.walStore == nil {
		return nil
	}
	defer s.recovering.Store(false)
	ids, err := s.reg.walStore.List()
	if err != nil {
		return err
	}
	for _, id := range ids {
		if _, err := s.reg.Restore(id); err != nil {
			if s.cfg.Logger != nil {
				s.cfg.Logger.Printf("wal: skipping model %q: %v", id, err)
			}
			continue
		}
	}
	return nil
}

// Recovering reports whether a WAL replay is still in flight.
func (s *Server) Recovering() bool { return s.recovering.Load() }

// routes registers every endpoint. docs/openapi.yaml is the normative
// description of this surface; the two must list exactly the same
// routes.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/models", s.handleCreateModel)
	s.mux.HandleFunc("GET /v1/models", s.handleListModels)
	s.mux.HandleFunc("GET /v1/models/{id}", s.handleGetModel)
	s.mux.HandleFunc("DELETE /v1/models/{id}", s.handleDeleteModel)
	s.mux.HandleFunc("POST /v1/models/{id}/recommend", s.handleRecommend)
	s.mux.HandleFunc("POST /v1/models/{id}/rank", s.handleRank)
	s.mux.HandleFunc("POST /v1/models/{id}/optimize", s.handleOptimize)
	s.mux.HandleFunc("POST /v1/models/{id}/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/models/{id}/makespan", s.handleMakespan)
	s.mux.HandleFunc("POST /v1/models/{id}/observations", s.handleObservations)
	s.mux.HandleFunc("POST /v1/batch/plan", s.handleBatchPlan)
}

// Handler returns the service's HTTP handler: the route mux wrapped
// in admission control (SLO-class shedding + deadline propagation),
// panic recovery, optional fault injection and (when configured)
// request logging. Chaos sits inside admission so injected faults
// exercise exactly what real slow/failing work would: an injected
// latency spike holds its admission slot, pushing the gate toward
// shedding, the way a genuinely slow backend does.
func (s *Server) Handler() http.Handler {
	var h http.Handler = s.mux
	if s.cfg.Chaos != nil {
		h = chaos.Middleware(h, *s.cfg.Chaos)
	}
	h = s.admissionMiddleware(h)
	h = recoverMiddleware(h)
	if s.cfg.Logger != nil {
		h = loggingMiddleware(s.cfg.Logger, h)
	}
	return h
}

// Registry exposes the model registry (used by the daemon for preload
// and by tests for direct inspection).
func (s *Server) Registry() *Registry { return s.reg }

// Preload registers the named paper datasets (or every one of them
// for the single name "all") under their dataset names and fills each
// snapshot's whole candidate table before returning, so no request on
// a preloaded model pays a table fill, whatever its options. Models
// registered or rebuilt later fill their tables on demand, which
// keeps that work off the ingest path.
func (s *Server) Preload(names ...string) error {
	if len(names) == 1 && names[0] == "all" {
		names = nil
		for _, spec := range gridstrat.PaperDatasets() {
			names = append(names, spec.Name)
		}
	}
	for _, name := range names {
		tr, err := gridstrat.SynthesizeDataset(name)
		if err != nil {
			return err
		}
		e, err := s.reg.Put(name, "dataset:"+name, s.cfg.DefaultWindow, tr)
		if err != nil {
			return fmt.Errorf("preloading %q: %w", name, err)
		}
		if err := e.State().planner.Prepare(); err != nil {
			return fmt.Errorf("planning %q: %w", name, err)
		}
	}
	return nil
}

// plannerFor builds the per-request Planner: the entry's shared model
// (so every request on one model snapshot reads one candidate table
// and only filters it), the request context (so a dropped connection
// cancels a table fill mid-scan), and the request's constraint
// options. The
// server-wide worker cap is applied first so it also binds requests
// that omit the workers option (whose Planner default, GOMAXPROCS,
// may exceed the cap); an explicit clamped option overrides it.
func (s *Server) plannerFor(r *http.Request, st *ModelState, o *Options) (*gridstrat.Planner, error) {
	opts := []gridstrat.PlannerOption{
		gridstrat.WithContext(r.Context()),
		gridstrat.WithParallelism(s.cfg.MaxWorkers),
	}
	opts = append(opts, o.plannerOptions(s.cfg.MaxWorkers)...)
	return gridstrat.NewPlanner(st.Model, opts...)
}

// parseTrace decodes an uploaded trace document in the given format.
func parseTrace(format, doc string) (*trace.Trace, error) {
	switch format {
	case "csv":
		return gridstrat.ReadTraceCSV(strings.NewReader(doc))
	case "gwf":
		return gridstrat.ReadTraceGWF(strings.NewReader(doc))
	case "json":
		return gridstrat.ReadTraceJSON(strings.NewReader(doc))
	default:
		return nil, fmt.Errorf("unknown trace format %q (want csv, gwf or json)", format)
	}
}
