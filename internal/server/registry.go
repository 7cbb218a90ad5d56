// Package server implements gridstratd, the long-running HTTP/JSON
// planning service over the gridstrat library: a sharded model
// registry mapping model IDs to model snapshots, each planned once and
// shared by every request's Planner, query endpoints for
// every Planner question (recommend, rank, optimize, simulate,
// makespan), and a trace-ingestion endpoint that turns the paper's
// weekly tuning loop (§7.2) into a continuous rolling-window rebuild.
//
// The package is wired together by three layers: Registry (sharded,
// RWMutex-per-shard storage of model entries with LRU eviction and
// atomic model swaps), Server (route handlers, codecs, middleware),
// and Client (a typed Go client used by the handler tests and the
// examples). The write path — rolling trace buffers, merge-built
// ECDFs, warm-cache model swaps and the coalescing async rebuild
// worker — lives in ingest.go.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridstrat"
	"gridstrat/internal/core"
	"gridstrat/internal/stats"
	"gridstrat/internal/trace"
	"gridstrat/internal/wal"
)

// Registry errors reported to handlers; the HTTP layer maps them to
// 404, 409 and 400 envelopes respectively.
var (
	ErrNotFound = errors.New("server: model not found")
	ErrExists   = errors.New("server: model already exists")
	ErrInvalid  = errors.New("server: invalid argument")

	// ErrDurability marks a refused acknowledgement whose cause is the
	// durable log, not the request: the disk is full, the fsync failed,
	// or the log is poisoned by an unhealed torn write. Handlers map it
	// to 503 — the batch is safe to retry (it was never acked) once the
	// storage recovers.
	ErrDurability = errors.New("server: durable log unavailable")
)

// ModelTier is the representation a model snapshot is held in: the
// exact counted ECDF (every integral exact over the window), or the
// mergeable quantile sketch (bounded-error, an order of magnitude
// smaller) the registry demotes cold models to under byte pressure.
type ModelTier uint8

const (
	TierExact ModelTier = iota
	TierSketch
)

// String renders the tier for logs and the /v1/models wire form.
func (t ModelTier) String() string {
	if t == TierSketch {
		return "sketch"
	}
	return "exact"
}

// ModelState is one immutable snapshot of a registered model: the
// rolling-window trace it was built from, the latency model (carrying
// its candidate table) shared by every Planner answering queries on
// it, and the summary statistics of the window. Ingestion never mutates a ModelState; it
// builds a successor and swaps the entry's pointer, so in-flight
// queries keep computing on the snapshot they started with.
type ModelState struct {
	Trace   *trace.Trace // records inside the rolling window, ascending by submit
	Model   gridstrat.Model
	Stats   trace.Stats
	Version int64     // bumped on every successful rebuild
	Built   time.Time // when this snapshot was constructed

	// Tier is the representation behind Model: exact ECDF or quantile
	// sketch. Deep-demoted sketch states (durable registries) also drop
	// the window from Trace — the WAL snapshot holds the records — so
	// Trace carries only the name/timeout header there.
	Tier ModelTier

	// ecdf is the empirical CDF underlying an exact-tier Model
	// — the merge base of the next epoch's incremental rebuild and the
	// source of the TableKeys handed to its Prewarm. Sketch-tier states
	// built by a rebuild keep it (kernel-less) as the merge base;
	// deep-demoted ones drop it.
	ecdf *stats.ECDF

	// sketch is the quantile sketch of a sketch-tier state; its View is
	// the ECDF the Model reads.
	sketch *stats.Sketch

	// planner is the snapshot's shared default-options Planner — the
	// same one assembleModelState builds to obtain Model, the shared
	// model with the snapshot's candidate table. Option-default
	// queries reuse it instead of constructing a Planner per request;
	// requests carrying explicit options get their own Planner over
	// Model, which reads the same table. It runs under a background
	// context: the entries it fills are bounded work that every later
	// request on the snapshot reads, so per-request cancellation is
	// not worth a per-request Planner on the hot path.
	planner *gridstrat.Planner

	// Default-recommendation cache: the answer to an option-free
	// recommend on this snapshot is deterministic, so it is computed
	// once and the wire form (recJSON: the complete non-degraded
	// RecommendResponse bytes, trailing newline included, byte-equal
	// to what the uncached encoder produces) is replayed on every
	// subsequent hit. recEnvelope keeps the per-item form batch items
	// share without re-converting.
	recOnce     sync.Once
	rec         gridstrat.Recommendation
	recEnvelope RecommendationJSON
	recJSON     []byte
	recErr      error
}

// defaultRecommend resolves the snapshot's option-free recommendation,
// computing and caching it on first use. id is the owning entry's
// model ID (a ModelState belongs to exactly one entry, so the cached
// wire bytes embed it safely).
func (st *ModelState) defaultRecommend(id string) (gridstrat.Recommendation, []byte, error) {
	st.recOnce.Do(func() {
		st.rec, st.recErr = st.planner.Recommend()
		if st.recErr != nil {
			return
		}
		st.recEnvelope = recToJSON(st.rec)
		body, err := json.Marshal(RecommendResponse{
			Model:          id,
			Version:        st.Version,
			Recommendation: st.recEnvelope,
		})
		if err != nil {
			st.recErr = err
			return
		}
		// json.Encoder (the streaming path) terminates with '\n';
		// keeping the cached bytes identical makes cached and uncached
		// responses indistinguishable on the wire.
		st.recJSON = append(body, '\n')
	})
	return st.rec, st.recJSON, st.recErr
}

// MemBytes estimates the snapshot's resident heap footprint: the
// window records held by Trace plus the model representation (and
// whatever kernel/sampler tables it has built).
func (st *ModelState) MemBytes() int64 {
	var b int64
	if st.Trace != nil {
		b += int64(len(st.Trace.Records)) * probeRecordBytes
	}
	if st.sketch != nil {
		b += st.sketch.MemBytes()
	}
	if st.ecdf != nil {
		b += st.ecdf.MemBytes()
	}
	return b
}

// newModelState builds the model snapshot of a windowed trace from
// scratch: ECDF sort, outlier-ratio scan, full ComputeStats. It is the
// registration-time constructor (and the ingest path's recovery
// fallback); steady-state rebuilds go through newModelStateMerged.
func newModelState(tr *trace.Trace, version int64) (*ModelState, error) {
	ecdf, err := tr.ECDF()
	if err != nil {
		return nil, err
	}
	return assembleModelState(tr, ecdf, tr.OutlierRatio(), tr.ComputeStats(), version)
}

// newModelStateMerged builds the snapshot of a window whose ECDF was
// already produced incrementally (merge of the predecessor epoch), so
// no per-rebuild sort is paid: the stats are derived from the counted
// ECDF in O(support).
func newModelStateMerged(tr *trace.Trace, ecdf *stats.ECDF, outliers int, version int64) (*ModelState, error) {
	rho := 0.0
	if terminal := ecdf.N() + outliers; terminal > 0 {
		rho = float64(outliers) / float64(terminal)
	}
	st := trace.StatsFromECDF(tr.Name, ecdf, len(tr.Records), outliers, tr.Timeout)
	return assembleModelState(tr, ecdf, rho, st, version)
}

// newModelStateSketch builds a sketch-tier snapshot: the model queries
// the sketch's compiled view, the stats derive from that view, and
// base (when non-nil) rides along kernel-less as the merge base of the
// next incremental rebuild. The state's ecdf is base, never the view:
// MemBytes counts the view once (through the sketch), and the next
// rebuild merges forward from the exact window, not the lossy law.
// probes is the window record count the stats report (the
// deep-demotion path passes it explicitly because tr may be a
// records-free header there).
func newModelStateSketch(tr *trace.Trace, sk *stats.Sketch, base *stats.ECDF, probes, outliers int, version int64) (*ModelState, error) {
	rho := 0.0
	if terminal := sk.N() + outliers; terminal > 0 {
		rho = float64(outliers) / float64(terminal)
	}
	view := sk.View()
	st := trace.StatsFromECDF(tr.Name, view, probes, outliers, tr.Timeout)
	out, err := assembleModelState(tr, view, rho, st, version)
	if err != nil {
		return nil, err
	}
	out.Tier = TierSketch
	out.sketch = sk
	out.ecdf = base
	return out, nil
}

// assembleModelState wraps an ECDF — the exact window's, or a sketch's
// view — into the queryable model stack, with ecdf set to it (the
// sketch-tier caller resets ecdf to its merge base). The returned
// state's Model is the shared model of the snapshot's default
// Planner, so every per-request Planner constructed over it reads one
// candidate table and the snapshot is planned once (NewPlanner
// detects that model and does not wrap it again;
// TestPlannersShareOneMemo pins this).
func assembleModelState(tr *trace.Trace, ecdf *stats.ECDF, rho float64, st trace.Stats, version int64) (*ModelState, error) {
	em, err := core.NewEmpiricalModel(ecdf, rho, tr.Timeout)
	if err != nil {
		return nil, err
	}
	p, err := gridstrat.NewPlanner(em)
	if err != nil {
		return nil, err
	}
	out := &ModelState{
		Trace:   tr,
		Model:   p.Model(),
		Stats:   st,
		Version: version,
		Built:   time.Now(),
		planner: p,
		ecdf:    ecdf,
	}
	return out, nil
}

// maxWindowWidth bounds a model's rolling-window width (~317 years).
// An unbounded (or infinite — ParseFloat accepts "Inf") window would
// never trim, so every ingestion batch would grow the trace and the
// per-rebuild cost without limit; it also keeps the re-based submit
// span small enough that the Observe cursor stays below its ceiling.
const maxWindowWidth = 1e10

// maxTraceSubmit is the absolute ceiling on record submit times
// (~0.1% of float64's 2^53 integer range): past it, cursor + spacing
// could stop changing the float64 cursor and the rolling-window
// cutoff would freeze. Handler-level per-batch bounds keep normal
// traffic far below this; the check here makes the invariant durable
// across arbitrarily many batches.
const maxTraceSubmit = 1e13

// ShardStats is one shard's counter snapshot (or, summed, the
// registry totals reported by /v1/stats).
type ShardStats struct {
	Models        int    `json:"models"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	IngestBatches uint64 `json:"ingest_batches"`
	IngestRecords uint64 `json:"ingest_records"`

	// Write-path pipeline counters. Rebuilds counts model swaps;
	// CoalescedBatches the acknowledged batches that were folded into
	// an already-pending rebuild (rebuilds + coalesced = batches
	// applied); RebuildFailures the rebuilds that kept the previous
	// model because the window had become degenerate. QueuedRecords is
	// a gauge — the ingest lag, in records acknowledged but not yet in
	// any model snapshot.
	Rebuilds         uint64 `json:"rebuilds"`
	CoalescedBatches uint64 `json:"coalesced_batches"`
	RebuildFailures  uint64 `json:"rebuild_failures"`
	QueuedRecords    int    `json:"queued_records"`

	// Durability counters (all zero on a WAL-less server). WALAppends
	// counts batch/rebase frames written to the shard's model logs;
	// WALSnapshotBytes the total compacted-snapshot bytes written;
	// ReplayedRecords the records replayed from snapshot tails when
	// the shard's current entries were recovered (boot replay and
	// evicted-model reloads both count).
	WALAppends       uint64 `json:"wal_appends"`
	WALSnapshotBytes uint64 `json:"wal_snapshot_bytes"`
	ReplayedRecords  uint64 `json:"replayed_records"`

	// Tiering counters. ResidentBytes is a gauge: the estimated heap
	// footprint of the shard's entries (window records + model
	// representation + built tables). ModelsExact/ModelsSketch split
	// Models by current tier; Demotions counts exact→sketch moves the
	// byte-pressure enforcer performed.
	ResidentBytes int64  `json:"resident_bytes"`
	ModelsExact   int    `json:"models_exact"`
	ModelsSketch  int    `json:"models_sketch"`
	Demotions     uint64 `json:"demotions"`
}

type registryShard struct {
	mu      sync.RWMutex
	entries map[string]*Entry

	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	ingestBatches atomic.Uint64
	ingestRecords atomic.Uint64
	demotions     atomic.Uint64
}

// Registry is the sharded model store. Model IDs are hashed onto a
// fixed set of shards, each guarded by its own RWMutex, so lookups
// from concurrent query handlers only contend within a shard — and
// only on its read lock, since the LRU clock is advanced atomically.
// Each shard holds at most ⌈capacity/shards⌉ entries; inserting past
// that evicts the shard's least-recently-used entry (per-shard LRU is
// the usual sharded approximation of a global LRU: an entry can be
// evicted while a colder one survives in a different shard, in
// exchange for never taking a cross-shard lock).
type Registry struct {
	shards   []*registryShard
	perShard int
	capacity int

	rebuildEvery time.Duration // 0 = synchronous per-batch rebuilds
	maxQueued    int           // backpressure cap on queued ingest records

	// walStore, when set, makes the registry durable: Put opens a
	// per-model log and writes the seed snapshot, the ingest path
	// appends every acknowledged batch, Delete removes the durable
	// state, and Restore rebuilds an entry from disk (boot replay and
	// the lazy reload of evicted models).
	walStore      *wal.Store
	snapshotEvery int

	// restoreMu single-flights Restore: two concurrent reloads of one
	// evicted model must not both open its log (two appenders on one
	// segment would interleave frames). Restores are rare, so one
	// registry-wide mutex is fine.
	restoreMu sync.Mutex

	// Byte-based tiering policy. maxBytes (0 = unlimited) caps the
	// estimated resident footprint across all shards: past it, the
	// enforcer demotes the globally coldest exact-tier models to the
	// sketch tier, then falls back to evicting the coldest entries
	// outright. forceSketch builds every model in the sketch tier from
	// registration on (the GRIDSTRAT_SKETCH_TIER CI toggle). enforceMu
	// single-flights enforcement (TryLock: concurrent triggers skip
	// instead of queueing).
	maxBytes    int64
	forceSketch bool
	enforceMu   sync.Mutex
}

// defaultMaxQueued is the per-entry backpressure cap on acknowledged-
// but-unapplied ingest records; a batch that would push the queue past
// it pays for an inline drain instead of growing memory.
const defaultMaxQueued = 1 << 20

// NewRegistry builds a registry with the given shard count and total
// capacity. Non-positive arguments fall back to 8 shards / 256
// models. Entries rebuild synchronously per batch until
// SetIngestPolicy enables the async coalescing worker.
func NewRegistry(shards, capacity int) *Registry {
	if shards <= 0 {
		shards = 8
	}
	if capacity <= 0 {
		capacity = 256
	}
	if capacity < shards {
		capacity = shards // at least one model per shard
	}
	r := &Registry{
		shards:    make([]*registryShard, shards),
		perShard:  (capacity + shards - 1) / shards,
		capacity:  capacity,
		maxQueued: defaultMaxQueued,
	}
	for i := range r.shards {
		r.shards[i] = &registryShard{entries: make(map[string]*Entry)}
	}
	return r
}

// SetIngestPolicy configures the write path of entries registered
// after the call: a positive rebuildEvery decouples observation acks
// from model rebuilds (an async worker coalesces the batches queued
// within each interval into one rebuild), and maxQueued caps the
// acknowledged-but-unapplied records per entry (non-positive keeps
// the default). rebuildEvery = 0 keeps the synchronous
// rebuild-per-batch behaviour.
func (r *Registry) SetIngestPolicy(rebuildEvery time.Duration, maxQueued int) {
	if rebuildEvery < 0 {
		rebuildEvery = 0
	}
	if maxQueued <= 0 {
		maxQueued = defaultMaxQueued
	}
	r.rebuildEvery = rebuildEvery
	r.maxQueued = maxQueued
}

// SetMemoryPolicy configures byte-based tiering: maxBytes caps the
// estimated resident footprint (0 = unlimited; see EnforcePressure),
// and forceSketch builds every model in the sketch tier from
// registration on. Call it before any Put.
func (r *Registry) SetMemoryPolicy(maxBytes int64, forceSketch bool) {
	if maxBytes < 0 {
		maxBytes = 0
	}
	r.maxBytes = maxBytes
	r.forceSketch = forceSketch
}

// SetWAL makes the registry durable against the given store,
// compacting each model's log into a fresh snapshot after
// snapshotEvery appended records (non-positive falls back to 4096).
// Call it before any Put.
func (r *Registry) SetWAL(store *wal.Store, snapshotEvery int) {
	if snapshotEvery <= 0 {
		snapshotEvery = 4096
	}
	r.walStore = store
	r.snapshotEvery = snapshotEvery
}

// Capacity returns the registry's total model capacity.
func (r *Registry) Capacity() int { return r.capacity }

// shardFor hashes the ID onto its shard with an inline FNV-1a (the
// hash/fnv API would allocate a hasher plus a []byte copy of the ID
// on every registry operation — the service's hottest path).
func (r *Registry) shardFor(id string) *registryShard {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return r.shards[h%uint32(len(r.shards))]
}

// Put registers a model built from the trace under the given ID,
// evicting the shard's least-recently-used entry when the shard is
// full. The trace is loaded into a rolling buffer and trimmed to the
// trailing window first, so the ModelState invariant — records inside
// the window, ascending by submit — holds from registration, not only
// after the first observation batch. It returns ErrExists if the ID
// is already registered and wraps ErrInvalid for out-of-range
// arguments.
func (r *Registry) Put(id, source string, window float64, tr *trace.Trace) (*Entry, error) {
	e, err := r.put(id, source, window, tr)
	if err == nil {
		// Enforce outside put's shard/restore locks: demotion takes
		// entry locks and eviction takes shard locks of its own.
		r.EnforcePressure()
	}
	return e, err
}

func (r *Registry) put(id, source string, window float64, tr *trace.Trace) (*Entry, error) {
	if id == "" {
		return nil, fmt.Errorf("%w: empty model id", ErrInvalid)
	}
	if !(window > 0 && window <= maxWindowWidth) {
		return nil, fmt.Errorf("%w: window %v outside (0, %g]", ErrInvalid, window, float64(maxWindowWidth))
	}
	// Cheap duplicate check before the expensive model build; the
	// authoritative check re-runs under the write lock below (two
	// concurrent Puts of one ID can both pass this one). On a durable
	// registry an evicted-but-persisted model also counts as existing:
	// its state is one Get away, so silently overwriting it here would
	// turn a cache eviction into data loss.
	sh := r.shardFor(id)
	sh.mu.RLock()
	_, dup := sh.entries[id]
	sh.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, id)
	}
	if r.walStore != nil && r.walStore.Exists(id) {
		return nil, fmt.Errorf("%w: %q (durable; delete it first)", ErrExists, id)
	}
	e, err := newEntry(id, source, window, tr, r.rebuildEvery, r.maxQueued, r.forceSketch)
	if err != nil {
		return nil, err
	}
	if r.walStore != nil {
		// restoreMu serializes log opens: without it, two concurrent
		// Puts of one new ID could both pass the Exists check (no
		// snapshot on disk yet) and both open the model directory,
		// leaving two appenders interleaving frames on one segment. The
		// lock is held through the shard insert below so a Restore
		// cannot open the log in the window before the entry lands.
		r.restoreMu.Lock()
		defer r.restoreMu.Unlock()
		if r.walStore.Exists(id) {
			return nil, fmt.Errorf("%w: %q (durable; delete it first)", ErrExists, id)
		}
		if err := r.attachWAL(e); err != nil {
			return nil, err
		}
	}

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.entries[id]; ok {
		e.closeWAL()
		return nil, fmt.Errorf("%w: %q", ErrExists, id)
	}
	if len(sh.entries) >= r.perShard {
		sh.evictLocked()
	}
	sh.entries[id] = e
	return e, nil
}

// attachWAL opens the entry's log and persists its seed snapshot, so
// the model is durable from the moment Put returns. Any junk segments
// from a registration that crashed before its first snapshot are cut
// and deleted by the snapshot.
func (r *Registry) attachWAL(e *Entry) error {
	log, snap, _, err := r.walStore.Open(e.ID)
	if err != nil {
		return fmt.Errorf("opening wal: %w", err)
	}
	if snap != nil {
		// Lost the race against a concurrent Put that already
		// snapshotted; surface it as a duplicate.
		log.Close()
		return fmt.Errorf("%w: %q", ErrExists, e.ID)
	}
	e.wal = log
	e.store = r.walStore
	e.snapshotEvery = r.snapshotEvery
	if err := e.snapshotNow(); err != nil {
		e.closeWAL()
		_ = r.walStore.Delete(e.ID)
		return fmt.Errorf("writing seed snapshot: %w", err)
	}
	return nil
}

// Restore rebuilds one model from its durable state and inserts it
// into the registry — the boot-replay path and the lazy reload of a
// model that was LRU-evicted but still has its log on disk. It is
// single-flighted; a concurrent Restore (or a Get that raced one)
// resolves to the already-inserted entry.
func (r *Registry) Restore(id string) (*Entry, error) {
	e, err := r.restore(id)
	if err == nil {
		r.EnforcePressure()
	}
	return e, err
}

func (r *Registry) restore(id string) (*Entry, error) {
	if r.walStore == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	r.restoreMu.Lock()
	defer r.restoreMu.Unlock()

	sh := r.shardFor(id)
	sh.mu.RLock()
	e, ok := sh.entries[id]
	sh.mu.RUnlock()
	if ok {
		return e, nil
	}
	if !r.walStore.Exists(id) {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}

	log, snap, replayed, err := r.walStore.Open(id)
	if err != nil {
		return nil, fmt.Errorf("recovering %q: %w", id, err)
	}
	e, err = newEntryFromSnapshot(id, snap, replayed, log, r.rebuildEvery, r.maxQueued, r.snapshotEvery, r.forceSketch)
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("recovering %q: %w", id, err)
	}
	e.store = r.walStore

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if raced, ok := sh.entries[id]; ok {
		e.closeWAL()
		return raced, nil
	}
	if len(sh.entries) >= r.perShard {
		sh.evictLocked()
	}
	sh.entries[id] = e
	return e, nil
}

// evictLocked removes the shard's least-recently-used entry. Caller
// holds the shard write lock. On a durable registry eviction is a
// cache eviction, not a delete: the entry's log is closed but its
// files stay, so the next Get restores the model from disk.
func (sh *registryShard) evictLocked() {
	var victim string
	oldest := int64(1<<63 - 1)
	for id, e := range sh.entries {
		if t := e.lastUsed.Load(); t < oldest {
			oldest, victim = t, id
		}
	}
	if victim != "" {
		sh.entries[victim].closeWAL()
		delete(sh.entries, victim)
		sh.evictions.Add(1)
	}
}

// Get returns the entry for the ID, touching its LRU clock and the
// shard's hit/miss counters.
func (r *Registry) Get(id string) (*Entry, error) {
	sh := r.shardFor(id)
	sh.mu.RLock()
	e, ok := sh.entries[id]
	sh.mu.RUnlock()
	if !ok {
		sh.misses.Add(1)
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	sh.hits.Add(1)
	e.lastUsed.Store(time.Now().UnixNano())
	return e, nil
}

// Delete removes the entry for the ID — durable state included, so a
// deleted model stays deleted across restarts — reporting whether it
// existed (in memory or on disk).
func (r *Registry) Delete(id string) bool {
	sh := r.shardFor(id)
	sh.mu.Lock()
	e, ok := sh.entries[id]
	if ok {
		e.closeWAL()
		delete(sh.entries, id)
	}
	sh.mu.Unlock()
	if r.walStore != nil && r.walStore.Exists(id) {
		_ = r.walStore.Delete(id)
		return true
	}
	if ok && r.walStore != nil {
		_ = r.walStore.Delete(id) // dir without a snapshot yet
	}
	return ok
}

// noteIngest records one ingestion batch in the owning shard's
// counters and re-checks byte pressure (ingestion is what grows
// resident state between registrations).
func (r *Registry) noteIngest(id string, records int) {
	sh := r.shardFor(id)
	sh.ingestBatches.Add(1)
	sh.ingestRecords.Add(uint64(records))
	r.EnforcePressure()
}

// ResidentBytes returns the estimated resident heap footprint of every
// registered entry.
func (r *Registry) ResidentBytes() int64 {
	var total int64
	for _, sh := range r.shards {
		sh.mu.RLock()
		for _, e := range sh.entries {
			total += e.MemBytes()
		}
		sh.mu.RUnlock()
	}
	return total
}

// EnforcePressure brings the registry's estimated resident footprint
// back under the byte cap, in two escalating moves: first the globally
// coldest exact-tier models are demoted to the sketch tier (on a
// durable registry the window moves to the WAL snapshot and drops from
// memory — promotion back is a bit-equal replay; without a WAL the
// demotion only sheds the exact representation's tables), and only
// when no exact model is left to demote are the coldest entries
// evicted outright. No-op without a byte cap. Concurrent triggers
// skip (TryLock) instead of queueing — the next batch re-checks.
func (r *Registry) EnforcePressure() {
	if r.maxBytes <= 0 {
		return
	}
	if !r.enforceMu.TryLock() {
		return
	}
	defer r.enforceMu.Unlock()
	for r.ResidentBytes() > r.maxBytes {
		if e := r.coldest(func(e *Entry) bool { return e.State().Tier == TierExact }); e != nil {
			if e.demote() {
				r.shardFor(e.ID).demotions.Add(1)
				continue
			}
			// Demotion can fail transiently (snapshot write error, raced
			// tier change); fall through to eviction rather than spin.
		}
		if r.Len() <= 1 {
			return // never evict the last model; the cap is best-effort
		}
		victim := r.coldest(nil)
		if victim == nil {
			return
		}
		r.evictID(victim.ID)
	}
}

// coldest returns the registered entry with the oldest LRU clock among
// those matching keep (nil matches all), or nil when none match.
func (r *Registry) coldest(keep func(*Entry) bool) *Entry {
	var victim *Entry
	oldest := int64(1<<63 - 1)
	for _, sh := range r.shards {
		sh.mu.RLock()
		for _, e := range sh.entries {
			if keep != nil && !keep(e) {
				continue
			}
			if t := e.lastUsed.Load(); t < oldest {
				oldest, victim = t, e
			}
		}
		sh.mu.RUnlock()
	}
	return victim
}

// evictID removes one specific entry as a cache eviction (durable
// state stays on disk; see evictLocked).
func (r *Registry) evictID(id string) {
	sh := r.shardFor(id)
	sh.mu.Lock()
	if e, ok := sh.entries[id]; ok {
		e.closeWAL()
		delete(sh.entries, id)
		sh.evictions.Add(1)
	}
	sh.mu.Unlock()
}

// List returns every registered entry sorted by ID.
func (r *Registry) List() []*Entry {
	var out []*Entry
	for _, sh := range r.shards {
		sh.mu.RLock()
		for _, e := range sh.entries {
			out = append(out, e)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	n := 0
	for _, sh := range r.shards {
		sh.mu.RLock()
		n += len(sh.entries)
		sh.mu.RUnlock()
	}
	return n
}

// Stats returns a per-shard counter snapshot, including the write-
// path pipeline counters summed over the shard's entries.
func (r *Registry) Stats() []ShardStats {
	out := make([]ShardStats, len(r.shards))
	for i, sh := range r.shards {
		st := ShardStats{
			Hits:          sh.hits.Load(),
			Misses:        sh.misses.Load(),
			Evictions:     sh.evictions.Load(),
			IngestBatches: sh.ingestBatches.Load(),
			IngestRecords: sh.ingestRecords.Load(),
			Demotions:     sh.demotions.Load(),
		}
		sh.mu.RLock()
		st.Models = len(sh.entries)
		for _, e := range sh.entries {
			st.Rebuilds += e.rebuilds.Load()
			st.CoalescedBatches += e.coalesced.Load()
			st.RebuildFailures += e.rebuildFails.Load()
			st.QueuedRecords += e.Pending()
			if e.wal != nil {
				st.WALAppends += e.wal.Appends()
				st.WALSnapshotBytes += e.wal.SnapshotBytes()
			}
			st.ReplayedRecords += uint64(e.replayed)
			st.ResidentBytes += e.MemBytes()
			if e.State().Tier == TierSketch {
				st.ModelsSketch++
			} else {
				st.ModelsExact++
			}
		}
		sh.mu.RUnlock()
		out[i] = st
	}
	return out
}
