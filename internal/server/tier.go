package server

import (
	"fmt"

	"gridstrat/internal/stats"
	"gridstrat/internal/trace"
)

// Tier transitions. A model lives in one of two representations — the
// exact counted ECDF or the mergeable quantile sketch — and the moves
// between them are:
//
//	exact ──demote──▶ sketch ──promote──▶ exact
//
// On a durable registry demotion is *deep*: the window is captured in
// a tier-stamped WAL snapshot and dropped from memory, so the entry
// shrinks to the sketch plus a records-free header. Promotion replays
// the snapshot (plus any batches acknowledged while demoted — they
// are WAL-appended as usual), so the restored window is bit-equal to
// the one the demotion captured; the next rebuild then republishes an
// exact-tier state through the same flat-rebuild path recovery uses.
// Without a WAL the demotion is *shallow*: the window stays resident
// and only the exact representation's kernel and sampler tables are
// shed — queries run on the sketch until memory pressure clears.

// promoteLocked replays a deep-demoted entry's window back from its
// WAL so the write path can mutate it. No-op unless the window was
// dropped. Caller holds ingestMu (qmu is taken here, preserving the
// ingestMu → qmu order). The published state is not rebuilt here —
// every caller follows with a rebuild that republishes the exact
// tier; until then queries keep the sketch snapshot.
func (e *Entry) promoteLocked() error {
	if !e.windowDropped {
		return nil
	}
	if e.store == nil {
		return fmt.Errorf("server: windowless entry %q has no durable store", e.ID)
	}
	e.qmu.Lock()
	defer e.qmu.Unlock()
	// Reopen through the store: Open replays snapshot + tail, so the
	// restored records are exactly everything acknowledged so far. The
	// close/reopen runs under the ack lock, so no append interleaves
	// with the appender swap.
	_ = e.wal.Close()
	log, snap, replayed, err := e.store.Open(e.ID)
	if err != nil {
		// The old appender is closed; the entry stays demoted and acks
		// fail until a later write retries the promotion.
		return fmt.Errorf("server: promoting %q: %w", e.ID, err)
	}
	e.wal = log
	tr := &trace.Trace{Name: snap.Name, Timeout: snap.Timeout, Records: snap.Records}
	rolling, err := trace.NewRolling(tr, snap.Window)
	if err != nil {
		return fmt.Errorf("server: promoting %q: %w", e.ID, err)
	}
	e.rolling = rolling
	e.windowDropped = false
	e.wantSketch = e.policySketch
	e.fullRebuild = true // no merge base survived the drop
	e.winComplete, e.winOutliers = countStatuses(rolling.Records())
	e.windowRecs.Store(int64(rolling.Len()))
	e.replayed += replayed
	// Every queued record was WAL-appended at ack time, so the replay
	// above already folded it into the buffer; dropping the queue here
	// keeps a later drain from applying it twice.
	if len(e.queue) > 0 {
		e.coalesced.Add(uint64(e.queuedBatches))
		e.queue, e.queuedBatches = nil, 0
	}
	// The last durable snapshot is sketch-stamped; force the next
	// rebuild's compaction to re-capture the window under an exact
	// stamp so a crash right after the promotion recovers exact.
	e.sinceSnap = e.snapshotEvery
	return nil
}

// demote moves an exact-tier entry to the sketch tier, reporting
// whether it did (false: already sketch, or a transient failure — the
// pressure enforcer falls through to eviction rather than spinning).
// Durable entries demote deep, memory-only entries shallow; see the
// file comment.
func (e *Entry) demote() bool {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	old := e.state.Load()
	if old.Tier != TierExact || e.windowDropped {
		return false
	}
	// The sketch summarizes the current window. The published merge
	// base is the cheap source; a broken chain falls back to a flat
	// build so the sketch never summarizes a stale epoch.
	base := old.ecdf
	if e.fullRebuild || base == nil {
		var err error
		base, err = e.rolling.Snapshot().ECDF()
		if err != nil {
			return false
		}
	}
	sk := stats.SketchFromECDF(base, 0)
	if e.wal != nil && e.store != nil {
		// Deep: capture window + queue in a sketch-stamped snapshot
		// (the WAL becomes the window's source of truth), then drop the
		// in-memory buffers. Queued records stay queued — they are in
		// the snapshot, and the promotion a later drain runs discards
		// the queue after replaying them.
		if err := e.snapshotLocked(old.Version, TierSketch); err != nil {
			return false
		}
		hdr := &trace.Trace{Name: e.rolling.Name(), Timeout: e.timeout}
		probes := e.rolling.Len()
		st, err := newModelStateSketch(hdr, sk, nil, probes, e.winOutliers, old.Version)
		if err != nil {
			return false
		}
		e.dropWindowLocked()
		e.state.Store(st)
		e.sinceSnap = 0
		return true
	}
	// Shallow: the window stays resident (there is nowhere durable to
	// move it); shed the exact representation's kernel and sampler
	// tables and serve queries from the sketch. base rides along
	// kernel-less as the next rebuild's merge base.
	base.DropKernels()
	tw := e.rolling.Snapshot()
	st, err := newModelStateSketch(tw, sk, base, len(tw.Records), e.winOutliers, old.Version)
	if err != nil {
		return false
	}
	e.wantSketch = true
	e.state.Store(st)
	return true
}
