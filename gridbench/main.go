// Gridbench is the gridstratd benchmark: it starts a real gridstratd
// on loopback, runs one closed-loop workload on a fixed seeded
// operation sequence and prints the end-to-end metrics, or (with
// --trace 1) replays the same operations down the layer ladder and
// prints the per-layer metrics. See README.md.
//
// Usage (from the repository root, after building):
//
//	gridbench --workload plan_sweep --seed 1 --seconds 20 --trace 0 \
//	    --daemon .bench_build/bin/gridstratd --work .bench_build
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRuns is how many times each run sets the daemon up; setup_s
// is their median and the last one serves the timed phase.
const setupRuns = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	wl      *workload
	seed    int64
	seconds float64
	trace   bool
	daemon  string
	work    string
}

func main() {
	var (
		wlName  = flag.String("workload", "", "workload: plan_sweep or ingest_churn")
		seed    = flag.Int64("seed", 1, "seed of the generated operations")
		seconds = flag.Float64("seconds", 20, "timed-phase size: the operation count is calibrated to last about this long")
		traceOn = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		bin     = flag.String("daemon", ".bench_build/bin/gridstratd", "gridstratd binary")
		work    = flag.String("work", ".bench_build", "scratch directory for WAL directories")
	)
	flag.Parse()
	// The client keeps little live heap; collecting less often keeps
	// its garbage collector out of the daemon's way on a small host.
	debug.SetGCPercent(400)

	// Every exit path, a signal included, kills the daemons.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		stopAll()
		os.Exit(2)
	}()

	wl, err := workloadByName(*wlName)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	cfg := config{wl: wl, seed: *seed, seconds: *seconds, trace: *traceOn == 1, daemon: *bin, work: *work}
	printEnv(cfg)

	var rep report
	if cfg.trace {
		rep, err = runTraced(cfg)
	} else {
		rep, err = runEndToEnd(cfg)
	}
	stopAll()
	if err != nil && rep.Metrics == nil {
		fatal(err)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridbench: correctness check failed:", err)
		rep.Correct = false
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	fmt.Printf("attempted %d  failed %d  succeeded %d\n", rep.Attempted, rep.Failed, rep.Attempted-rep.Failed)
	out, _ := json.Marshal(rep)
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	stopAll()
	fmt.Fprintln(os.Stderr, "gridbench:", err)
	os.Exit(1)
}

// printEnv records what the numbers were measured on: the Go
// version, GOMAXPROCS, the CPU count, the commit (when the working
// directory is the top of a git checkout) and a digest of the daemon
// binary, which identifies the build either way.
func printEnv(cfg config) {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output(); err == nil {
		lines := strings.Fields(string(out))
		if wd, _ := os.Getwd(); len(lines) == 2 && lines[0] == wd {
			commit = lines[1][:12]
		}
	}
	build := "unknown"
	if raw, err := os.ReadFile(cfg.daemon); err == nil {
		build = fmt.Sprintf("%x", sha256.Sum256(raw))[:12]
	}
	goVersion := runtime.Version()
	if info, ok := debug.ReadBuildInfo(); ok {
		goVersion = info.GoVersion
	}
	fmt.Printf("# gridbench workload=%s seed=%d seconds=%g trace=%v go=%s gomaxprocs=%d nproc=%d commit=%s daemon_sha256=%s\n",
		cfg.wl.name, cfg.seed, cfg.seconds, cfg.trace, goVersion, runtime.GOMAXPROCS(0), runtime.NumCPU(), commit, build)
}

// session is one daemon set up for a workload.
type session struct {
	d      *daemon
	c      *client
	setupS []float64
}

// setUp starts and prepares the workload's daemon n times, keeping
// the last one; setupS holds each start-to-ready wall time.
func setUp(ctx context.Context, cfg config, n int) (*session, error) {
	s := &session{}
	for k := 0; k < n; k++ {
		walRoot := ""
		if cfg.wl.useWAL {
			walRoot = cfg.work
		}
		start := time.Now()
		d, err := startDaemon(cfg.daemon, walRoot, cfg.wl.args()...)
		if err != nil {
			return nil, err
		}
		c := newClient(d.base, cfg.wl.clients)
		if err := cfg.wl.setup(ctx, c, newGenerator(cfg.seed+setupSeedOffset)); err != nil {
			d.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s.setupS = append(s.setupS, time.Since(start).Seconds())
		if k < n-1 {
			c.close()
			d.stop()
			continue
		}
		s.d, s.c = d, c
	}
	return s, nil
}

// setupSeedOffset separates the set-up record stream from the timed
// operation stream of the same seed.
const setupSeedOffset = 1_000_003

// timedRounds is how many consecutive rounds the timed phase is cut
// into; throughput_rps is the median of the rounds' rates, so a
// disturbance confined to one or two rounds does not move it.
const timedRounds = 5

// phase is one timed closed-loop phase and what it measured.
type phase struct {
	ops     []*op
	run     *phaseRun
	cpuMs   float64 // daemon CPU over the phase
	walApps uint64  // WAL frames appended over the phase
	// clientMallocs counts the benchmark process's own heap
	// allocations over the phase: the client side of the wire.
	clientMallocs uint64
}

// timedOps generates the run's warm-up and timed operations.
func timedOps(cfg config) (g *generator, warm, ops []*op) {
	g = newGenerator(cfg.seed)
	warm = make([]*op, cfg.wl.warmOps)
	for i := range warm {
		warm[i] = cfg.wl.gen(g)
	}
	n := int(math.Round(cfg.wl.opsPerSecond * cfg.seconds))
	if n < 1 {
		n = 1
	}
	ops = make([]*op, n)
	for i := range ops {
		ops[i] = cfg.wl.gen(g)
	}
	return g, warm, ops
}

// runPhase runs the warm-up, then the timed phase, then checks that
// every operation succeeded, nothing was shed and every answer is
// correct. A failed check returns the phase together with the error,
// so the caller can still report what was measured.
func runPhase(ctx context.Context, cfg config, s *session) (*phase, error) {
	g, warm, ops := timedOps(cfg)
	if err := runClosedLoop(ctx, s.c, cfg.wl.clients, 1, warm, false).firstError(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	st0, err := s.d.stats(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := s.d.cpuTicks()
	if err != nil {
		return nil, err
	}
	p := &phase{ops: ops}
	m0, _ := memStats()
	p.run = runClosedLoop(ctx, s.c, cfg.wl.clients, timedRounds, ops, true)
	m1, _ := memStats()
	p.clientMallocs = m1 - m0
	cpu1, err := s.d.cpuTicks()
	if err != nil {
		return nil, err
	}
	st1, err := s.d.stats(ctx)
	if err != nil {
		return nil, err
	}
	p.cpuMs = float64(cpu1-cpu0) * 1000 / clockTick
	p.walApps = st1.Totals.WALAppends - st0.Totals.WALAppends
	if err := p.run.firstError(); err != nil {
		return p, fmt.Errorf("timed phase: %w", err)
	}
	res := st1.Resilience
	if shed := res.ShedCritical + res.ShedStandard + res.ShedSheddable + st1.Batch.Sheds; shed != 0 {
		return p, fmt.Errorf("daemon shed %d requests; the workload must run unshed", shed)
	}
	return p, cfg.wl.check(ctx, s.c, g, ops, p.run)
}

// timedClass is the operation class the latency metrics describe.
func timedClass(k opKind) bool { return k == opRecommend || k == opRefresh }

func runEndToEnd(cfg config) (report, error) {
	ctx := context.Background()
	s, err := setUp(ctx, cfg, setupRuns)
	if err != nil {
		return report{}, err
	}
	defer s.d.stop()
	t0 := time.Now()
	p, checkErr := runPhase(ctx, cfg, s)
	if p == nil {
		return report{}, checkErr
	}
	fmt.Printf("# phase: timed %.2fs, warm-up and checks %.2fs\n",
		p.run.wall.Seconds(), time.Since(t0).Seconds()-p.run.wall.Seconds())
	rss, err := s.d.peakRSSMB()
	if err != nil {
		return report{}, err
	}
	rep := report{Correct: true, Attempted: len(p.ops), Metrics: map[string]metric{}}
	var lats []time.Duration
	met := 0
	timed := 0
	for i, r := range p.run.res {
		if !r.ok() {
			rep.Failed++
		}
		if !timedClass(p.ops[i].kind) {
			continue
		}
		timed++
		if r.ok() {
			lats = append(lats, r.lat)
			if float64(r.lat)/1e6 <= cfg.wl.sloMs {
				met++
			}
		}
	}
	if len(lats) == 0 {
		return report{}, fmt.Errorf("no timed-class operation succeeded")
	}
	sorted := sortedMs(lats)
	tailV, tailName := tail(sorted)
	var rates []float64
	for r, d := range p.run.rounds {
		lo, hi := r*len(p.ops)/len(p.run.rounds), (r+1)*len(p.ops)/len(p.run.rounds)
		ok := 0
		for _, res := range p.run.res[lo:hi] {
			if res.ok() {
				ok++
			}
		}
		rates = append(rates, float64(ok)/d.Seconds())
	}
	p90, _ := percentile(sorted, 0.90)
	p99, _ := percentile(sorted, 0.99)
	fmt.Printf("# timed class: %d samples, tail_ms is %s, p90 %.4g ms, p99 %.4g ms, max %.4g ms, slo limit %g ms\n",
		len(sorted), tailName, p90, p99, sorted[len(sorted)-1], cfg.wl.sloMs)
	fmt.Printf("# setup_s runs %.4g; round rates %.5g\n", s.setupS, rates)
	rep.Metrics["setup_s"] = metric{medianOf(s.setupS), "s"}
	rep.Metrics["throughput_rps"] = metric{medianOf(rates), "1/s"}
	rep.Metrics["p50_ms"] = metric{median(sorted), "ms"}
	rep.Metrics["tail_ms"] = metric{tailV, "ms"}
	rep.Metrics["slo_attain"] = metric{float64(met) / float64(timed), "ratio"}
	rep.Metrics["peak_rss_mb"] = metric{rss, "MiB"}
	return rep, checkErr
}
