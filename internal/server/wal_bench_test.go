package server

// WAL ingest-overhead benchmarks.
//
// BenchmarkObserveBatchWAL drives the same steady-state observation
// batches as BenchmarkObserveBatch (W = 1e5 window records, 100-record
// batches) through a registry entry twice: once in-memory only, once
// with a write-ahead log attached under the default interval fsync
// policy. The delta is the price of durability on the hot write path;
// BenchmarkIngestWALOverhead gates it.

import (
	"math/rand"
	"testing"
	"time"

	"gridstrat/internal/wal"
)

// benchWALRegistry builds a single-shard registry over the W-record
// seed trace, optionally backed by a WAL under dir with the interval
// fsync policy. The snapshot cadence is raised past the workload size
// so the timed loop measures the append path, not a mid-run
// compaction.
func benchWALRegistry(w int, dir string) (*Registry, *Entry, error) {
	r := NewRegistry(1, 8)
	if dir != "" {
		store, err := wal.NewStore(dir, wal.Options{Sync: wal.SyncInterval})
		if err != nil {
			return nil, nil, err
		}
		r.SetWAL(store, 1<<20)
	}
	tr, width := benchSeedTrace(w)
	e, err := r.Put("bench", "test", width, tr)
	if err != nil {
		return nil, nil, err
	}
	return r, e, nil
}

func benchmarkObserveWAL(b *testing.B, w int, withWAL bool) {
	dir := ""
	if withWAL {
		dir = b.TempDir()
	}
	reg, e, err := benchWALRegistry(w, dir)
	if err != nil {
		b.Fatal(err)
	}
	defer reg.Delete("bench")
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Observe(benchBatch(rng, benchBatchSize), nil, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchBatchSize), "records/op")
}

func BenchmarkObserveBatchWAL(b *testing.B) {
	b.Run("W=1e5/off", func(b *testing.B) { benchmarkObserveWAL(b, 100_000, false) })
	b.Run("W=1e5/on", func(b *testing.B) { benchmarkObserveWAL(b, 100_000, true) })
}

// walIngestTime returns the best-of-reps wall time of `batches`
// steady-state observation batches on a fresh W-record registry entry.
// The registry build (including the seed snapshot write on the WAL-on
// arm) is hoisted out of the timed region: the comparison is about the
// per-batch append cost, and both arms replay the identical batch
// stream from the same seed.
func walIngestTime(b *testing.B, reps, w, batches int, withWAL bool) time.Duration {
	b.Helper()
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		dir := ""
		if withWAL {
			dir = b.TempDir()
		}
		reg, e, err := benchWALRegistry(w, dir)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		start := time.Now()
		for i := 0; i < batches; i++ {
			if _, err := e.Observe(benchBatch(rng, benchBatchSize), nil, 1); err != nil {
				b.Fatal(err)
			}
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
		reg.Delete("bench")
	}
	return best
}

// BenchmarkIngestWALOverhead times 20 steady-state batches at W = 1e5,
// best of 3, with and without the WAL, reports WAL-on over WAL-off as
// "overhead-x", and fails past 2x: durability must not halve ingest
// throughput. The append path is an in-memory encode plus a buffered
// sequential write; fsync rides the interval flusher off the hot path.
func BenchmarkIngestWALOverhead(b *testing.B) {
	const w, batches = 100_000, 20
	for i := 0; i < b.N; i++ {
		off := walIngestTime(b, 3, w, batches, false)
		on := walIngestTime(b, 3, w, batches, true)
		overhead := float64(on) / float64(off)
		b.ReportMetric(overhead, "overhead-x")
		if overhead > 2.0 {
			b.Fatalf("WAL-on ingest is %.2fx WAL-off (bound: 2x): on %v, off %v", overhead, on, off)
		}
	}
}
