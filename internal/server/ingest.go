package server

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridstrat/internal/stats"
	"gridstrat/internal/trace"
	"gridstrat/internal/wal"
)

// This file is the service's write path: the per-entry incremental
// ingestion pipeline
//
//	stamp → queue → rolling-buffer append/trim → merge-built ECDF
//	      → kernel prewarm → atomic ModelState swap
//
// A batch of k records against a window of W records costs
// O(k log k + support + evicted) per rebuild — no copy of the whole
// window, no re-sort, no cold first query after the swap — versus the
// O(W log W) copy-sort-rebuild the pre-incremental path paid on every
// batch. With a rebuild interval configured, acks decouple from
// rebuilds entirely: batches queue on the entry and a worker coalesces
// everything that arrived within the interval into one rebuild.

// Entry is one registered model. The queryable state lives behind an
// atomic pointer: readers Load it without any entry-level lock, and
// the rebuild path swaps in a rebuilt snapshot, so queries and
// ingestion never block each other.
//
// Two locks split the write path. qmu is the ack lock — it guards the
// ingest queue, the ID counter and the submit-time cursor, so
// acknowledging a batch is O(batch) stamping plus an enqueue. ingestMu
// is the rebuild lock — it guards the rolling buffer, the window
// status counts and the rebuild-and-swap, so rebuilds serialize
// without ever blocking an ack (lock order: ingestMu before qmu).
type Entry struct {
	ID      string
	Source  string  // "dataset:<name>" or "upload:<format>"
	Window  float64 // rolling-window width, seconds
	timeout float64 // probe censoring bound, immutable after construction

	state atomic.Pointer[ModelState]

	// lastUsed is the entry's LRU clock (unix nanoseconds of the most
	// recent Get), advanced with an atomic store so lookups stay on the
	// shard's read lock; eviction picks the smallest value.
	lastUsed atomic.Int64

	rebuildEvery time.Duration // 0 = rebuild synchronously in Observe
	maxQueued    int           // backpressure cap on queued records

	qmu           sync.Mutex
	queue         []trace.ProbeRecord // stamped records awaiting a rebuild
	queuedBatches int
	draining      int // records the drain in progress took off the queue
	workerActive  bool
	nextID        int     // next free probe-record ID
	cursor        float64 // largest submit time across window + queue

	ingestMu    sync.Mutex
	rolling     *trace.Rolling // canonical mutable window, ascending by submit
	winComplete int            // completed records in the window
	winOutliers int            // outlier + fault records in the window
	// fullRebuild marks the window's ECDF chain as broken (a rebuild
	// failed after the buffer was mutated); the next rebuild resorts
	// from the flat window instead of merging, restoring the chain.
	fullRebuild bool

	// Tiering state (guarded by ingestMu). wantSketch is the target
	// representation rebuilds produce; windowDropped marks a deep
	// demotion — rolling is nil and the WAL snapshot holds the window,
	// so any write-path entry needing the buffer promotes (replays)
	// first. windowRecs mirrors rolling.Len() atomically so MemBytes
	// and the pressure enforcer read it lock-free.
	wantSketch    bool
	windowDropped bool
	windowRecs    atomic.Int64
	// policySketch records the registry's force-sketch policy at
	// construction: promotion restores wantSketch to it, so a policy-
	// sketched entry stays sketch across a promote-for-write cycle
	// while a pressure-demoted one returns to the exact tier.
	policySketch bool

	rebuilds     atomic.Uint64
	coalesced    atomic.Uint64
	rebuildFails atomic.Uint64

	// Durability. wal (nil on a memory-only registry) receives one
	// framed batch per acknowledged Observe — written before the ack
	// commits, so every acknowledged record is on the log — plus
	// re-base ops. sinceSnap counts records appended since the last
	// compacted snapshot (guarded by ingestMu; the rebuild path
	// triggers a snapshot past snapshotEvery). replayed is the number
	// of tail records this entry's recovery replayed on top of its
	// snapshot (0 for entries created in this process's lifetime).
	wal           *wal.Log
	store         *wal.Store // nil on a memory-only registry; promote reopens through it
	snapshotEvery int
	sinceSnap     int
	replayed      int
}

// probeRecordBytes is the estimated heap cost of one trace.ProbeRecord
// (int ID + two float64s + status byte, padded).
const probeRecordBytes = 32

// MemBytes estimates the entry's resident heap footprint: the current
// model snapshot (window trace + representation + tables), the rolling
// buffer, and the ingest queue. Lock-free; the byte-pressure enforcer
// and /v1/stats read it concurrently with ingestion.
func (e *Entry) MemBytes() int64 {
	var b int64
	if st := e.state.Load(); st != nil {
		b += st.MemBytes()
	}
	b += e.windowRecs.Load() * probeRecordBytes
	b += int64(e.Pending()) * probeRecordBytes
	return b
}

// newEntry loads a trace into the rolling buffer, trims it to the
// window and builds version 1 of the model — in the sketch tier when
// sketchTier is set (the registry's force-sketch policy).
func newEntry(id, source string, window float64, tr *trace.Trace, rebuildEvery time.Duration, maxQueued int, sketchTier bool) (*Entry, error) {
	rolling, err := trace.NewRolling(tr, window)
	if err != nil {
		return nil, err
	}
	tw := rolling.Snapshot()
	state, err := newModelState(tw, 1)
	if err != nil {
		return nil, err
	}
	if sketchTier {
		base := state.ecdf
		_, outliers := countStatuses(tw.Records)
		state, err = newModelStateSketch(tw, stats.SketchFromECDF(base, 0), base, len(tw.Records), outliers, 1)
		if err != nil {
			return nil, err
		}
	}
	e := &Entry{
		ID:           id,
		Source:       source,
		Window:       window,
		timeout:      rolling.Timeout(),
		rebuildEvery: rebuildEvery,
		maxQueued:    maxQueued,
		rolling:      rolling,
		cursor:       rolling.MaxSubmit(),
		wantSketch:   sketchTier,
		policySketch: sketchTier,
	}
	e.winComplete, e.winOutliers = countStatuses(rolling.Records())
	e.windowRecs.Store(int64(rolling.Len()))
	// IDs stay unique against the full seed trace, including records
	// the window trim dropped.
	for _, rec := range tr.Records {
		if rec.ID >= e.nextID {
			e.nextID = rec.ID + 1
		}
	}
	e.state.Store(state)
	e.lastUsed.Store(time.Now().UnixNano())
	return e, nil
}

// newEntryFromSnapshot rebuilds an entry from its recovered durable
// state: load the records into a rolling buffer (NewRolling re-sorts
// and trims, reproducing exactly the window the live entry held — see
// DESIGN.md's recovery equivalence argument), rebuild the model from
// scratch, and restore the stamping state. The flat rebuild is
// bit-identical to the incremental merge chain the pre-crash entry
// ran, so the recovered ECDF equals the pre-crash one bit for bit.
func newEntryFromSnapshot(id string, snap *wal.EntrySnapshot, replayed int, log *wal.Log, rebuildEvery time.Duration, maxQueued, snapshotEvery int, forceSketch bool) (*Entry, error) {
	tr := &trace.Trace{Name: snap.Name, Timeout: snap.Timeout, Records: snap.Records}
	rolling, err := trace.NewRolling(tr, snap.Window)
	if err != nil {
		return nil, err
	}
	version := snap.Version
	if replayed > 0 {
		version++ // the tail's records fold into one recovery rebuild
	}
	// Build through the same path as a steady-state rebuild — ECDF from
	// the flat window, stats derived from the counted ECDF — so the
	// recovered state is bit-equal to the pre-crash one (ComputeStats
	// sums in a different order and can differ in the last ULP).
	tw := rolling.Snapshot()
	ecdf, err := tw.ECDF()
	if err != nil {
		return nil, err
	}
	_, outliers := countStatuses(tw.Records)
	// A sketch-stamped snapshot with no tail ops recovers deep: the
	// demotion that wrote it was the entry's last durable event, so the
	// same windowless sketch representation is restored (the replayed
	// window just served as the rebuild input). Tail ops after a sketch
	// snapshot mean the entry was promoted back for writes before the
	// crash — it recovers exact, matching its pre-crash tier.
	deepSketch := snap.Tier == uint8(TierSketch) && replayed == 0
	sketchTier := forceSketch || deepSketch
	var state *ModelState
	if sketchTier {
		sk := stats.SketchFromECDF(ecdf, 0)
		str, base := tw, ecdf
		if deepSketch {
			str = &trace.Trace{Name: snap.Name, Timeout: snap.Timeout}
			base = nil
		}
		state, err = newModelStateSketch(str, sk, base, len(tw.Records), outliers, version)
		if err != nil {
			return nil, err
		}
	} else {
		state, err = newModelStateMerged(tw, ecdf, outliers, version)
		if err != nil {
			return nil, err
		}
	}
	e := &Entry{
		ID:            id,
		Source:        snap.Source,
		Window:        snap.Window,
		timeout:       rolling.Timeout(),
		rebuildEvery:  rebuildEvery,
		maxQueued:     maxQueued,
		rolling:       rolling,
		cursor:        snap.Cursor,
		nextID:        int(snap.NextID),
		wantSketch:    sketchTier,
		policySketch:  forceSketch,
		wal:           log,
		snapshotEvery: snapshotEvery,
		sinceSnap:     replayed, // a long tail compacts on the next rebuild
		replayed:      replayed,
	}
	e.winComplete, e.winOutliers = countStatuses(rolling.Records())
	e.windowRecs.Store(int64(rolling.Len()))
	if deepSketch {
		e.dropWindowLocked()
	}
	e.state.Store(state)
	e.lastUsed.Store(time.Now().UnixNano())
	return e, nil
}

// dropWindowLocked releases the in-memory window buffers after their
// records are durably captured in a tier-stamped snapshot. Caller
// holds ingestMu (or owns the entry exclusively during construction)
// and has already arranged a sketch-tier state whose Trace is a
// records-free header.
func (e *Entry) dropWindowLocked() {
	e.rolling = nil
	e.windowDropped = true
	e.windowRecs.Store(0)
	e.winComplete, e.winOutliers = 0, 0
	e.wantSketch = true
	e.fullRebuild = true // no merge base survives a window drop
}

// State returns the entry's current immutable model snapshot.
func (e *Entry) State() *ModelState { return e.state.Load() }

// walAppend logs one stamped batch with the cursor/ID state it
// advances the entry to. Called before the ack commits, so a log
// failure rejects the batch instead of acknowledging a record the
// crash story cannot reproduce. No-op on a memory-only entry.
func (e *Entry) walAppend(stamped []trace.ProbeRecord, cursor float64, nextID int) error {
	if e.wal == nil {
		return nil
	}
	if err := e.wal.AppendBatch(wal.Batch{Cursor: cursor, NextID: int64(nextID), Records: stamped}); err != nil {
		return fmt.Errorf("%w: wal append: %v", ErrDurability, err)
	}
	return nil
}

// snapshotLocked compacts the entry's durable state: cut the log at
// this instant (under the ack lock, so no append lands between the
// state copy and the cut), then persist window + queue + stamping
// state — stamped with the given representation tier — and delete the
// covered segments. Caller holds ingestMu and the window must still be
// resident (every caller either precedes a window drop or runs on a
// promoted entry).
func (e *Entry) snapshotLocked(version int64, tier ModelTier) error {
	e.qmu.Lock()
	covered, err := e.wal.Cut()
	if err != nil {
		e.qmu.Unlock()
		return err
	}
	recs := make([]trace.ProbeRecord, 0, e.rolling.Len()+len(e.queue))
	recs = append(recs, e.rolling.Records()...)
	recs = append(recs, e.queue...)
	snap := wal.EntrySnapshot{
		Name:    e.rolling.Name(),
		Source:  e.Source,
		Timeout: e.rolling.Timeout(),
		Window:  e.Window,
		Cursor:  e.cursor,
		NextID:  int64(e.nextID),
		Version: version,
		Records: recs,
		Tier:    uint8(tier),
	}
	e.qmu.Unlock()
	return e.wal.WriteSnapshot(snap, covered)
}

// snapshotNow takes the rebuild lock and compacts immediately — the
// registration path uses it to persist the seed state.
//
// Routine snapshots stamp TierExact even under the force-sketch
// policy: the stamp marks a *windowless* (deep-demoted) entry whose
// representation must be restored without re-deriving it, while a
// policy-sketched entry keeps its window resident and the policy
// itself re-applies at recovery. Only the deep demotion path stamps
// TierSketch.
func (e *Entry) snapshotNow() error {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if e.wal == nil {
		return nil
	}
	return e.snapshotLocked(e.state.Load().Version, TierExact)
}

// closeWAL closes the entry's log (idempotent; no-op without one).
// Eviction and delete call it; the files stay on disk for eviction
// (Restore reopens them) and are removed separately for delete.
func (e *Entry) closeWAL() {
	if e.wal != nil {
		_ = e.wal.Close()
	}
}

// Pending returns the number of acknowledged records not yet applied
// to any model snapshot — the entry's ingest lag.
func (e *Entry) Pending() int {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return len(e.queue) + e.draining
}

// countStatuses tallies completed and outlier+fault records.
func countStatuses(recs []trace.ProbeRecord) (completed, outliers int) {
	for _, r := range recs {
		switch r.Status {
		case trace.StatusCompleted:
			completed++
		case trace.StatusOutlier, trace.StatusFault:
			outliers++
		}
	}
	return completed, outliers
}

// ObserveResult summarizes one ingestion batch.
type ObserveResult struct {
	State    *ModelState // snapshot the ack reflects (see Pending)
	Appended int         // records acknowledged from the batch
	Dropped  int         // records the batch's rebuild evicted (0 for queued acks)
	Pending  int         // acknowledged records not yet in State
}

// Observe appends probe records to the entry's rolling window. Record
// IDs and submit times are assigned under the entry's ack lock, so
// concurrent batches interleave cleanly: each record is stamped
// spacing seconds after its predecessor, starting at *start when given
// and right after the newest known record otherwise. Callers only
// provide Latency and Status.
//
// With no rebuild interval configured the call rebuilds the model
// before returning, all-or-nothing: a batch that would leave the
// window without a single completed probe is rejected and the entry
// keeps its previous state. With a rebuild interval the batch is
// stamped, queued and acknowledged immediately — Pending reports the
// queue depth and the async worker folds everything queued within the
// interval into one rebuild (bounded staleness; a queue past the
// entry's record cap forces an inline drain instead).
//
// Observe holds no registry lock, so a batch racing a Delete (or an
// LRU eviction) of the same model can be acknowledged against the
// departing entry; the outcome is identical to the delete landing
// just after the batch, so acknowledged-then-deleted is the same
// at-most-once contract either way.
func (e *Entry) Observe(recs []trace.ProbeRecord, start *float64, spacing float64) (ObserveResult, error) {
	if len(recs) == 0 {
		return ObserveResult{}, fmt.Errorf("server: empty observation batch")
	}
	if spacing <= 0 {
		spacing = 1
	}
	timeout := e.timeout // immutable after construction
	for i, r := range recs {
		if r.Latency < 0 || math.IsNaN(r.Latency) {
			return ObserveResult{}, fmt.Errorf("server: record %d: invalid latency %v", i, r.Latency)
		}
		if r.Status == trace.StatusCompleted && r.Latency > timeout {
			return ObserveResult{}, fmt.Errorf("server: record %d: completed latency %v exceeds timeout %v", i, r.Latency, timeout)
		}
	}
	if start != nil && !(*start >= 0) {
		return ObserveResult{}, fmt.Errorf("server: negative start %v", *start)
	}
	if e.rebuildEvery <= 0 {
		return e.observeSync(recs, start, spacing)
	}
	return e.observeAsync(recs, start, spacing)
}

// observeSync is the synchronous mode: stamp, pre-check, rebuild and
// swap in one critical section, preserving the historical
// all-or-nothing batch contract.
func (e *Entry) observeSync(recs []trace.ProbeRecord, start *float64, spacing float64) (ObserveResult, error) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if err := e.promoteLocked(); err != nil {
		return ObserveResult{}, err
	}
	stamped, cursor, nextID, err := e.stamp(recs, start, spacing, true)
	if err != nil {
		return ObserveResult{}, err
	}
	// All-or-nothing pre-check: would the batch leave the window with
	// no completed probe? Cheap — O(evicted + batch) — and it is the
	// only way a rebuild of a validated batch can fail, so checking it
	// up front means nothing below this point needs a rollback.
	newMax := e.rolling.MaxSubmit()
	if s := stamped[len(stamped)-1].Submit; s > newMax {
		newMax = s
	}
	cutoff := newMax - e.Window
	kept := e.winComplete
	for _, r := range e.rolling.Records() {
		if r.Submit >= cutoff {
			break
		}
		if r.Status == trace.StatusCompleted {
			kept--
		}
	}
	for _, r := range stamped {
		if r.Status == trace.StatusCompleted && r.Submit >= cutoff {
			kept++
		}
	}
	if kept == 0 {
		return ObserveResult{}, fmt.Errorf("rebuilding windowed model: %w", trace.ErrNoCompleted)
	}
	if err := e.walAppend(stamped, cursor, nextID); err != nil {
		return ObserveResult{}, err
	}
	e.commitStamp(cursor, nextID)
	state, dropped, err := e.rebuildLocked(stamped, 1)
	if err != nil {
		return ObserveResult{}, err
	}
	return ObserveResult{State: state, Appended: len(stamped), Dropped: dropped}, nil
}

// observeAsync is the decoupled mode: stamp and enqueue under the ack
// lock, make sure a worker is scheduled, and acknowledge. Only a
// queue past the backpressure cap pays for a rebuild inline.
func (e *Entry) observeAsync(recs []trace.ProbeRecord, start *float64, spacing float64) (ObserveResult, error) {
	e.qmu.Lock()
	stamped, cursor, nextID, err := e.stamp(recs, start, spacing, false)
	if err != nil {
		e.qmu.Unlock()
		return ObserveResult{}, err
	}
	if err := e.walAppend(stamped, cursor, nextID); err != nil {
		e.qmu.Unlock()
		return ObserveResult{}, err
	}
	e.commitStamp(cursor, nextID)
	e.queue = append(e.queue, stamped...)
	e.queuedBatches++
	pending := len(e.queue)
	overCap := pending > e.maxQueued
	if !overCap && !e.workerActive {
		e.workerActive = true
		go e.rebuildWorker()
	}
	e.qmu.Unlock()

	if overCap {
		// Backpressure: this ack pays for one coalesced drain so the
		// queue cannot grow without bound. The batch was acknowledged
		// either way, so a degenerate window is not an error here: the
		// previous model stays current (counted in rebuild_failures)
		// and the records stay applied to the buffer.
		state, dropped, _ := e.Flush()
		return ObserveResult{State: state, Appended: len(stamped), Dropped: dropped}, nil
	}
	return ObserveResult{State: e.state.Load(), Appended: len(stamped), Pending: pending}, nil
}

// stamp assigns IDs and submit times to a copy of the batch without
// committing the cursor or ID counter (commitStamp does, so the sync
// path's pre-check can still reject the batch with nothing to roll
// back). haveIngestMu tells the ceiling re-base slow path whether the
// rebuild lock is already held. Callers hold qmu in async mode; in
// sync mode ingestMu alone serializes and qmu is taken as needed.
func (e *Entry) stamp(recs []trace.ProbeRecord, start *float64, spacing float64, haveIngestMu bool) ([]trace.ProbeRecord, float64, int, error) {
	rebased := false
	for {
		cursor, first := e.cursor, 0.0
		if start != nil {
			first = *start
		} else {
			first = cursor + spacing
		}
		// When the default cursor approaches the ceiling, re-base the
		// window onto t = 0: trimming depends only on relative submit
		// times, so shifting every record preserves each decision while
		// resetting the cursor far below the ceiling (the post-trim
		// span is at most the window width) — ingestion can never wedge
		// itself.
		if start == nil && !rebased && first+spacing*float64(len(recs)) > maxTraceSubmit {
			if haveIngestMu {
				e.rebase()
			} else {
				e.qmu.Unlock()
				e.ingestMu.Lock()
				e.rebase()
				e.ingestMu.Unlock()
				e.qmu.Lock()
			}
			rebased = true
			continue
		}
		stamped := make([]trace.ProbeRecord, len(recs))
		id := e.nextID
		c := first
		for i, r := range recs {
			r.ID = id
			r.Submit = c
			id++
			c += spacing
			stamped[i] = r
		}
		last := stamped[len(stamped)-1].Submit
		if c > maxTraceSubmit {
			return nil, 0, 0, fmt.Errorf("server: submit cursor %g past the %g ceiling", c, float64(maxTraceSubmit))
		}
		if last > cursor {
			cursor = last
		}
		return stamped, cursor, id, nil
	}
}

// commitStamp advances the ack cursor and ID counter to the values a
// successful stamp computed.
func (e *Entry) commitStamp(cursor float64, nextID int) {
	e.cursor = cursor
	e.nextID = nextID
}

// rebase shifts the whole window — buffer, queue and cursor — onto
// t = 0. Caller holds ingestMu and must not hold qmu (it is taken
// here, preserving the ingestMu → qmu order).
func (e *Entry) rebase() {
	if err := e.promoteLocked(); err != nil {
		// Without the window the re-base cannot shift; stamping will
		// reject the batch at the ceiling instead of wedging.
		return
	}
	e.qmu.Lock()
	defer e.qmu.Unlock()
	offset := e.rolling.MinSubmit()
	for _, r := range e.queue {
		if r.Submit < offset {
			offset = r.Submit
		}
	}
	e.rolling.Rebase(offset)
	for i := range e.queue {
		e.queue[i].Submit -= offset
	}
	e.cursor -= offset
	if e.wal != nil {
		if err := e.wal.AppendRebase(offset); err != nil {
			// The in-memory window shifted but the log missed the op;
			// force a compaction on the next rebuild so the snapshot
			// re-captures the shifted state and heals the divergence.
			e.sinceSnap = e.snapshotEvery
		}
	}
}

// rebuildWorker drains the ingest queue on the entry's rebuild
// interval, folding every batch acknowledged within an interval into
// one rebuild, and exits once the queue is empty (the next ack
// schedules a fresh worker — idle entries carry no goroutine).
func (e *Entry) rebuildWorker() {
	for {
		time.Sleep(e.rebuildEvery)
		e.ingestMu.Lock()
		_, _, _ = e.drainLocked() // failure keeps the last good model; counted
		e.ingestMu.Unlock()

		e.qmu.Lock()
		if len(e.queue) == 0 {
			e.workerActive = false
			e.qmu.Unlock()
			return
		}
		e.qmu.Unlock()
	}
}

// Flush applies every queued record now, returning the resulting
// snapshot and the number of records its rebuild evicted — the
// bounded-staleness escape hatch (the handler's sync=true, the
// backpressure path and the tests use it). With an empty queue it
// returns the current snapshot untouched. An error means the drained
// window could not support a model: the records stay applied to the
// buffer (they were acknowledged), the previous snapshot stays
// current, and the failure is counted in rebuild_failures.
func (e *Entry) Flush() (*ModelState, int, error) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	return e.drainLocked()
}

// drainLocked rebuilds with every queued record. Caller holds ingestMu.
// The drained records stay counted by Pending until the rebuild has
// published its snapshot (or failed), so the ingest lag never reads 0
// while acknowledged records are in no snapshot.
func (e *Entry) drainLocked() (*ModelState, int, error) {
	e.qmu.Lock()
	recs, batches := e.queue, e.queuedBatches
	e.queue, e.queuedBatches = nil, 0
	e.draining = len(recs)
	e.qmu.Unlock()
	if len(recs) == 0 {
		return e.state.Load(), 0, nil
	}
	defer func() {
		e.qmu.Lock()
		e.draining = 0
		e.qmu.Unlock()
	}()
	return e.rebuildLocked(recs, batches)
}

// rebuildLocked is the incremental rebuild: append the drained
// records to the rolling buffer, trim the window, merge the
// predecessor's ECDF forward (additions in, evictions out — no
// re-sort), prewarm the successor's kernels from the predecessor's
// table manifest, and atomically swap the new ModelState in. Caller
// holds ingestMu. On failure (a window left without completed probes)
// the previous state stays current, the buffer keeps the new records,
// and the next successful rebuild resorts from the flat window.
func (e *Entry) rebuildLocked(recs []trace.ProbeRecord, batches int) (*ModelState, int, error) {
	// A deep-demoted entry replays its window back first: the WAL is
	// the source of truth, so promotion restores exactly the buffer the
	// demotion captured (bit-equal by the recovery guarantee).
	if e.windowDropped {
		if err := e.promoteLocked(); err != nil {
			e.rebuildFails.Add(1)
			return e.state.Load(), 0, fmt.Errorf("rebuilding windowed model: %w", err)
		}
		// Every record drained into recs was acknowledged — and WAL-
		// appended — while the window was dropped, so the promotion
		// replay has already folded it into the buffer; appending it
		// again would double-count. The rebuild below still runs to
		// publish a fresh snapshot over the replayed window.
		recs = nil
	}
	old := e.state.Load()
	e.rolling.Append(recs)
	evicted := e.rolling.Trim()
	e.windowRecs.Store(int64(e.rolling.Len()))
	addC, addO := countStatuses(recs)
	dropC, dropO := countStatuses(evicted)
	e.winComplete += addC - dropC
	e.winOutliers += addO - dropO

	var (
		ecdf = old.ecdf
		err  error
	)
	switch {
	case e.fullRebuild || old.ecdf == nil:
		ecdf, err = e.rolling.Snapshot().ECDF()
	default:
		ecdf, err = old.ecdf.MergeSortedEvict(completedLatencies(recs), completedLatencies(evicted))
		if err != nil {
			// The merge chain is the fast path, not the source of
			// truth: any mismatch falls back to a flat rebuild.
			ecdf, err = e.rolling.Snapshot().ECDF()
		}
	}
	if err != nil {
		e.fullRebuild = true
		e.rebuildFails.Add(1)
		return old, len(evicted), fmt.Errorf("rebuilding windowed model: %w", err)
	}
	// Warm-cache handoff: rebuild the outgoing epoch's integral
	// kernels — and, when it ever sampled, the sampler table — on the
	// incoming ECDF before the swap, so the first post-swap query
	// costs a binary search, not an O(n) table build. Tables the old
	// epoch never built are not built here either. Sketch-tier
	// successors skip the handoff entirely: their queries run on the
	// sketch view, so prewarming the merge-base ECDF would rebuild the
	// very tables demotion exists to shed.
	if !e.wantSketch && old.ecdf != nil {
		ecdf.Prewarm(old.ecdf.TableKeys())
		if old.ecdf.SamplerWarm() {
			ecdf.PrewarmSampler()
		}
	}
	var state *ModelState
	if e.wantSketch {
		tw := e.rolling.Snapshot()
		state, err = newModelStateSketch(tw, stats.SketchFromECDF(ecdf, 0), ecdf, len(tw.Records), e.winOutliers, old.Version+1)
	} else {
		state, err = newModelStateMerged(e.rolling.Snapshot(), ecdf, e.winOutliers, old.Version+1)
	}
	if err != nil {
		e.fullRebuild = true
		e.rebuildFails.Add(1)
		return old, len(evicted), fmt.Errorf("rebuilding windowed model: %w", err)
	}
	e.state.Store(state)
	e.fullRebuild = false
	e.rebuilds.Add(1)
	if batches > 1 {
		e.coalesced.Add(uint64(batches - 1))
	}
	// Compaction cadence: once enough records have accumulated since
	// the last snapshot, fold them into a fresh one (best-effort — a
	// failed compaction keeps the old snapshot plus the tail, which
	// replays to the same state).
	if e.wal != nil {
		e.sinceSnap += len(recs)
		if e.sinceSnap >= e.snapshotEvery {
			if err := e.snapshotLocked(state.Version, TierExact); err == nil {
				e.sinceSnap = 0
			}
		}
	}
	return state, len(evicted), nil
}

// completedLatencies returns the sorted completed-probe latencies of a
// record slice — the add/evict operands of the ECDF merge.
func completedLatencies(recs []trace.ProbeRecord) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Status == trace.StatusCompleted {
			out = append(out, r.Latency)
		}
	}
	sort.Float64s(out)
	return out
}
