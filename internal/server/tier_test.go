package server

import (
	"context"
	"math"
	"math/rand"
	"os"
	"testing"

	"gridstrat"
	"gridstrat/internal/stats"
)

// Tiering tests: the exact ⇄ sketch state machine, byte-pressure
// enforcement, and the bit-equality contract of a deep demotion's
// promote-for-write replay.

// TestForceSketchRegistration: with the force-sketch policy every
// model registers, ingests and reports in the sketch tier.
func TestForceSketchRegistration(t *testing.T) {
	s, _, c := newTestServerCfg(t, Config{SketchTier: true})
	e, err := s.Registry().Put("m", "test", 4000, synthTrace("m", 80, 4, 1))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got := e.State().Tier; got != TierSketch {
		t.Fatalf("tier after Put: %v", got)
	}
	if _, err := e.Observe(randomBatch(rand.New(rand.NewSource(2)), 20), nil, 5); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if got := e.State().Tier; got != TierSketch {
		t.Fatalf("tier after Observe: %v", got)
	}
	// The policy-sketched window stays resident: this is the shallow
	// form, exactness is one flat rebuild away.
	if e.windowRecs.Load() == 0 {
		t.Fatal("force-sketch entry dropped its window")
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Totals.ModelsSketch != 1 || st.Totals.ModelsExact != 0 {
		t.Fatalf("totals: exact %d, sketch %d", st.Totals.ModelsExact, st.Totals.ModelsSketch)
	}
	if st.Totals.ResidentBytes <= 0 {
		t.Fatalf("resident_bytes = %d", st.Totals.ResidentBytes)
	}
	info, err := c.GetModel(context.Background(), "m", 0)
	if err != nil {
		t.Fatalf("GetModel: %v", err)
	}
	if info.Tier != "sketch" {
		t.Fatalf("wire tier = %q", info.Tier)
	}
}

// TestShallowDemotion: on a memory-only registry a demotion keeps the
// window resident but swaps queries onto the sketch and sheds the
// exact representation's kernel tables.
func TestShallowDemotion(t *testing.T) {
	s := MustNew(Config{})
	e, err := s.Registry().Put("m", "test", 1e6, synthTrace("m", 2000, 40, 3))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Build some kernel tables so the demotion has something to shed.
	st := e.State()
	p, err := gridstrat.NewPlanner(st.Model)
	if err != nil {
		t.Fatalf("planner: %v", err)
	}
	if _, err := p.Recommend(); err != nil {
		t.Fatalf("recommend: %v", err)
	}
	before := e.MemBytes()
	if !e.demote() {
		t.Fatal("demote returned false")
	}
	if e.demote() {
		t.Fatal("second demote of a sketch entry returned true")
	}
	after := e.State()
	if after.Tier != TierSketch {
		t.Fatalf("tier = %v", after.Tier)
	}
	if e.windowRecs.Load() == 0 || e.windowDropped {
		t.Fatal("shallow demotion dropped the window")
	}
	if len(after.Trace.Records) == 0 {
		t.Fatal("shallow demotion lost the window trace")
	}
	if got := e.MemBytes(); got >= before {
		t.Fatalf("MemBytes did not shrink: %d -> %d", before, got)
	}
	// The sketch-backed model still answers planner questions.
	p2, err := gridstrat.NewPlanner(after.Model)
	if err != nil {
		t.Fatalf("planner on sketch: %v", err)
	}
	if _, err := p2.Recommend(); err != nil {
		t.Fatalf("recommend on sketch: %v", err)
	}
}

// TestDeepDemotionPromotionBitEqual is the tentpole pin for tiering on
// a durable registry: a deep demotion sheds the window into a
// tier-stamped WAL snapshot, and the promotion a later write triggers
// replays it back so the rebuilt exact model is bit-equal to a twin
// that was never demoted.
func TestDeepDemotionPromotionBitEqual(t *testing.T) {
	mk := func(dir string) (*Server, *Entry) {
		s := recoverServer(t, Config{WALDir: dir, WALSync: "none", SnapshotEvery: 150})
		e, err := s.Registry().Put("m", "test", 4000, synthTrace("m", 80, 4, 1))
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		return s, e
	}
	_, demoted := mk(t.TempDir())
	_, twin := mk(t.TempDir())

	// Identical ingest history on both entries.
	observe := func(e *Entry, seed int64, rounds int) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < rounds; i++ {
			if _, err := e.Observe(randomBatch(rng, 25), nil, 3); err != nil {
				t.Fatalf("Observe: %v", err)
			}
		}
	}
	observe(demoted, 7, 20)
	observe(twin, 7, 20)

	exactBytes := demoted.MemBytes()
	if !demoted.demote() {
		t.Fatal("demote returned false")
	}
	st := demoted.State()
	if st.Tier != TierSketch {
		t.Fatalf("tier = %v", st.Tier)
	}
	if len(st.Trace.Records) != 0 {
		t.Fatalf("deep demotion kept %d window records in the state", len(st.Trace.Records))
	}
	if !demoted.windowDropped || demoted.rolling != nil {
		t.Fatal("deep demotion did not drop the rolling buffer")
	}
	// The window here is small (n < k, no compaction), so the sketch
	// retains every value; the big ratios come from large windows and
	// are pinned by the tiering benchmark. Even so the window records
	// and rolling buffer must be gone.
	if got := demoted.MemBytes(); got >= exactBytes/2 {
		t.Fatalf("deep demotion freed too little: %d -> %d", exactBytes, got)
	}
	// Stats survive windowlessly: probe counts come from the sketch.
	if st.Stats.Probes == 0 {
		t.Fatal("sketch state lost the probe count")
	}
	// The sketched model still answers queries.
	p, err := gridstrat.NewPlanner(st.Model)
	if err != nil {
		t.Fatalf("planner on sketch: %v", err)
	}
	if _, err := p.Recommend(); err != nil {
		t.Fatalf("recommend on sketch: %v", err)
	}

	// One more identical batch on both: the demoted entry promotes
	// (WAL replay) before the write, and both land on the same bits.
	observe(demoted, 8, 1)
	observe(twin, 8, 1)
	a, b := demoted.State(), twin.State()
	if a.Tier != TierExact {
		t.Fatalf("post-write tier = %v", a.Tier)
	}
	requireECDFBitEqual(t, b.ecdf, a.ecdf)
	if math.Float64bits(demoted.cursor) != math.Float64bits(twin.cursor) {
		t.Fatalf("cursor: %v vs %v", demoted.cursor, twin.cursor)
	}
	if demoted.nextID != twin.nextID {
		t.Fatalf("nextID: %d vs %d", demoted.nextID, twin.nextID)
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverged:\npromoted %+v\ntwin     %+v", a.Stats, b.Stats)
	}
}

// TestDeepDemotionRecoveryRestoresTier: the tier stamp on the WAL
// snapshot makes recovery representation-faithful. A crash after a
// deep demotion recovers windowless sketch; a crash after the entry
// was promoted back recovers exact.
func TestDeepDemotionRecoveryRestoresTier(t *testing.T) {
	cfg := Config{WALDir: t.TempDir(), WALSync: "none", SnapshotEvery: 1 << 20}
	s1 := recoverServer(t, cfg)
	e1, err := s1.Registry().Put("m", "test", 4000, synthTrace("m", 80, 4, 1))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		if _, err := e1.Observe(randomBatch(rng, 20), nil, 3); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if !e1.demote() {
		t.Fatal("demote returned false")
	}

	// Crash while demoted: the sketch-stamped snapshot is the last
	// durable event, so recovery restores the windowless sketch tier.
	s2 := recoverServer(t, cfg)
	e2, err := s2.Registry().Get("m")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got := e2.State().Tier; got != TierSketch {
		t.Fatalf("recovered tier = %v", got)
	}
	if !e2.windowDropped {
		t.Fatal("recovered entry kept a window after a sketch-stamped snapshot")
	}
	if e2.MemBytes() >= e1.MemBytes()*4 {
		t.Fatalf("recovered sketch entry is not small: %d", e2.MemBytes())
	}

	// A write promotes it; a second crash now has tail ops after the
	// sketch snapshot, so recovery restores the exact tier.
	if _, err := e2.Observe(randomBatch(rng, 20), nil, 3); err != nil {
		t.Fatalf("Observe after recovery: %v", err)
	}
	if got := e2.State().Tier; got != TierExact {
		t.Fatalf("post-write tier = %v", got)
	}
	s3 := recoverServer(t, cfg)
	e3, err := s3.Registry().Get("m")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got := e3.State().Tier; got != TierExact {
		t.Fatalf("tier after promote+crash = %v", got)
	}
	requireECDFBitEqual(t, e2.State().ecdf, e3.State().ecdf)
}

// TestEnforcePressureDemotesThenEvicts: past the byte cap the registry
// first demotes the coldest exact models (deep, on a durable store)
// and only evicts once demotion cannot reach the cap.
func TestEnforcePressureDemotesThenEvicts(t *testing.T) {
	t.Run("durable demotes under cap", func(t *testing.T) {
		// Three exact models far exceed the cap; three deep-demoted
		// sketches fit with room to spare, so no eviction happens.
		s := recoverServer(t, Config{
			WALDir:   t.TempDir(),
			WALSync:  "none",
			MaxBytes: 300_000,
		})
		for _, id := range []string{"a", "b", "c"} {
			if _, err := s.Registry().Put(id, "test", 1e6, synthTrace(id, 2000, 40, 11)); err != nil {
				t.Fatalf("Put %s: %v", id, err)
			}
		}
		if got := s.Registry().Len(); got != 3 {
			t.Fatalf("models after enforcement: %d", got)
		}
		if got := s.Registry().ResidentBytes(); got > 300_000 {
			t.Fatalf("resident %d > cap", got)
		}
		var totals ShardStats
		for _, sh := range s.Registry().Stats() {
			totals.Demotions += sh.Demotions
			totals.ModelsSketch += sh.ModelsSketch
			totals.Evictions += sh.Evictions
		}
		if totals.Demotions == 0 || totals.ModelsSketch == 0 {
			t.Fatalf("no demotions recorded: %+v", totals)
		}
		if totals.Evictions != 0 {
			t.Fatalf("evicted %d models although demotion reached the cap", totals.Evictions)
		}
	})

	t.Run("memory-only falls back to eviction", func(t *testing.T) {
		// Shallow demotion keeps windows resident, so a cap below one
		// window can only be approached by evicting down to the last
		// model (which is never evicted).
		s := MustNew(Config{MaxBytes: 10_000})
		for _, id := range []string{"a", "b", "c"} {
			if _, err := s.Registry().Put(id, "test", 1e6, synthTrace(id, 2000, 40, 12)); err != nil {
				t.Fatalf("Put %s: %v", id, err)
			}
		}
		if got := s.Registry().Len(); got != 1 {
			t.Fatalf("models after enforcement: %d (want the never-evicted last one)", got)
		}
		var evictions uint64
		for _, sh := range s.Registry().Stats() {
			evictions += sh.Evictions
		}
		if evictions == 0 {
			t.Fatal("no evictions recorded")
		}
	})
}

// TestDemotedModelServesQueries: end-to-end over HTTP — a model under
// byte pressure keeps answering every planner endpoint from its
// sketch, and /v1/stats reports the tier split.
func TestDemotedModelServesQueries(t *testing.T) {
	s, _, c := newTestServerCfg(t, Config{
		WALDir:   t.TempDir(),
		WALSync:  "none",
		MaxBytes: 150_000,
	})
	if err := s.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	for _, id := range []string{"a", "b"} {
		if _, err := s.Registry().Put(id, "test", 1e6, synthTrace(id, 2000, 40, 13)); err != nil {
			t.Fatalf("Put %s: %v", id, err)
		}
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Totals.ModelsSketch == 0 {
		t.Fatalf("no sketch-tier models under the cap: %+v", st.Totals)
	}
	// Under the force-sketch toggle every model is born sketch, so the
	// enforcer has nothing to demote; otherwise the cap must have
	// demoted at least one exact model.
	if os.Getenv("GRIDSTRAT_SKETCH_TIER") != "1" && st.Totals.Demotions == 0 {
		t.Fatalf("expected demotions under the cap: %+v", st.Totals)
	}
	for _, id := range []string{"a", "b"} {
		if _, err := c.Recommend(context.Background(), id, RecommendRequest{}); err != nil {
			t.Fatalf("Recommend %s: %v", id, err)
		}
		if _, err := c.Rank(context.Background(), id, RankRequest{}); err != nil {
			t.Fatalf("Rank %s: %v", id, err)
		}
	}
	// Ingest on a demoted model promotes it for the write and keeps
	// serving afterwards.
	obs := ObserveRequest{Latencies: []float64{5, 42, 90}}
	if _, err := c.Observe(context.Background(), "a", obs); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if _, err := c.Recommend(context.Background(), "a", RecommendRequest{}); err != nil {
		t.Fatalf("Recommend after observe: %v", err)
	}
}

// warmTierKernels runs the steady-state batch query mix, a pow-kernel
// grid sweep plus a cross-term grid sweep, so the kernels a serving
// model holds are built before its bytes are counted.
func warmTierKernels(d *stats.ECDF) {
	grid := make([]float64, 256)
	max := d.Max()
	for i := range grid {
		grid[i] = max * float64(i+1) / float64(len(grid))
	}
	d.IntegralOneMinusFPowBatch(grid, 1, 2)
	d.IntegralProdBothBatch(grid, max/10, 1)
}

// TestSketchTierDensity: the sketch tier exists for many-model
// tenancy, so on one durable W = 1e5 entry the deep-demoted sketch
// representation (compiled view and its kernels, window in the WAL)
// must hold at least 20x fewer resident bytes, i.e. fit 20x more
// models per GB, than the exact one (window, counted ECDF and its
// kernels), both queried with the same mix.
func TestSketchTierDensity(t *testing.T) {
	reg, e, err := benchWALRegistry(100_000, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Delete("bench")
	warmTierKernels(e.State().ecdf)
	exact := e.MemBytes()
	if !e.demote() {
		t.Fatal("demote returned false")
	}
	sk := e.State().sketch
	if sk == nil {
		t.Fatal("demoted state has no sketch")
	}
	warmTierKernels(sk.View())
	sketch := e.MemBytes()
	ratio := float64(exact) / float64(sketch)
	t.Logf("exact %d B/model, sketch %d B/model: %.1fx models/GB (eps %.4f)", exact, sketch, ratio, sk.ErrorBound())
	if ratio < 20 {
		t.Fatalf("sketch tier packs only %.1fx more models/GB (bound: 20x)", ratio)
	}
}
