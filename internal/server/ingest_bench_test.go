package server

// Ingest-throughput benchmarks.
//
// BenchmarkObserveBatch drives steady-state observation batches (every
// batch evicts about as many records as it appends) through the two
// write paths at W ∈ {1e4, 1e5} window records:
//
//	full        — the pre-incremental pipeline: copy all W records,
//	              validate, re-scan the window, re-sort the ECDF,
//	              re-sort the summary stats (legacyEntry replica)
//	incremental — the rolling-buffer + merge-ECDF + prewarm pipeline

import (
	"math/rand"
	"testing"

	"gridstrat/internal/trace"
)

// benchSeedTrace builds a window of exactly w completed records at 1 s
// spacing (latencies jittered over a wide support so the ECDF stays
// realistic), with the window width chosen so steady-state batches
// evict about as many records as they append.
func benchSeedTrace(w int) (*trace.Trace, float64) {
	rng := rand.New(rand.NewSource(271))
	tr := &trace.Trace{Name: "bench", Timeout: trace.DefaultTimeout}
	for i := 0; i < w; i++ {
		tr.Records = append(tr.Records, trace.ProbeRecord{
			ID: i, Submit: float64(i), Latency: 50 + 900*rng.Float64(), Status: trace.StatusCompleted,
		})
	}
	return tr, float64(w)
}

// benchBatch builds one k-record observation batch.
func benchBatch(rng *rand.Rand, k int) []trace.ProbeRecord {
	recs := make([]trace.ProbeRecord, k)
	for i := range recs {
		recs[i] = trace.ProbeRecord{Latency: 50 + 900*rng.Float64(), Status: trace.StatusCompleted}
	}
	return recs
}

const benchBatchSize = 100

func benchmarkObserveFull(b *testing.B, w int) {
	tr, width := benchSeedTrace(w)
	l, err := newLegacyEntry(tr, width)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.observe(benchBatch(rng, benchBatchSize), nil, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchBatchSize), "records/op")
}

func benchmarkObserveIncremental(b *testing.B, w int) {
	tr, width := benchSeedTrace(w)
	e, err := newEntry("bench", "test", width, tr, 0, 0, false)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Observe(benchBatch(rng, benchBatchSize), nil, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchBatchSize), "records/op")
}

func BenchmarkObserveBatch(b *testing.B) {
	for _, w := range []int{10_000, 100_000} {
		name := "W=1e4"
		if w == 100_000 {
			name = "W=1e5"
		}
		b.Run(name+"/full", func(b *testing.B) { benchmarkObserveFull(b, w) })
		b.Run(name+"/incremental", func(b *testing.B) { benchmarkObserveIncremental(b, w) })
	}
}
