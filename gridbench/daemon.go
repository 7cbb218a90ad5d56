package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gridstrat/internal/server"
)

// daemon is one gridstratd process started by the benchmark on a free
// loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string // "http://127.0.0.1:<port>"
	walDir string // removed on stop; "" when the daemon runs without a WAL
	done   chan struct{}
	stderr *strings.Builder
}

// live tracks every started daemon so each exit path, a fatal error
// or a signal included, can kill them all.
var live struct {
	sync.Mutex
	set map[*daemon]struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// lockedBuilder is a strings.Builder safe to write from the exec
// copier goroutine while stop reads it.
type lockedBuilder struct {
	mu sync.Mutex
	b  *strings.Builder
}

func (w *lockedBuilder) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.b.Len() < 64<<10 {
		w.b.Write(p)
	}
	return len(p), nil
}

// startDaemon launches bin with args plus a fresh -addr (and, when
// walRoot is non-empty, a fresh -wal-dir under it) and waits until
// /healthz answers. It retries on a new port when the chosen one was
// taken between probing and binding.
func startDaemon(bin, walRoot string, args ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, fmt.Errorf("free port: %w", err)
		}
		d := &daemon{
			base:   "http://127.0.0.1:" + strconv.Itoa(port),
			done:   make(chan struct{}),
			stderr: &strings.Builder{},
		}
		full := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, args...)
		if walRoot != "" {
			dir, err := os.MkdirTemp(walRoot, "wal-")
			if err != nil {
				return nil, fmt.Errorf("wal dir: %w", err)
			}
			d.walDir = dir
			full = append(full, "-wal-dir", dir)
		}
		d.cmd = exec.Command(bin, full...)
		d.cmd.Stderr = &lockedBuilder{b: d.stderr}
		// The daemon dies with the benchmark even if the benchmark is
		// killed outright, so no stray daemon can load the next run.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := d.cmd.Start(); err != nil {
			d.removeWAL()
			return nil, fmt.Errorf("starting %s: %w", bin, err)
		}
		live.Lock()
		if live.set == nil {
			live.set = make(map[*daemon]struct{})
		}
		live.set[d] = struct{}{}
		live.Unlock()
		go func() {
			_ = d.cmd.Wait()
			close(d.done)
		}()
		if err := d.waitReady(60 * time.Second); err != nil {
			d.stop()
			lastErr = err
			continue
		}
		return d, nil
	}
	return nil, lastErr
}

// waitReady polls /healthz until it answers 200, the process exits,
// or the timeout passes.
func (d *daemon) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("daemon exited before ready: %s", d.stderrTail())
		default:
		}
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("daemon not ready within %v", timeout)
}

func (d *daemon) stderrTail() string {
	s := d.stderr.String()
	if len(s) > 2000 {
		s = s[len(s)-2000:]
	}
	return strings.TrimSpace(s)
}

func (d *daemon) removeWAL() {
	if d.walDir != "" {
		_ = os.RemoveAll(d.walDir)
	}
}

// stop kills the daemon, waits for it to exit and removes its WAL
// directory. It is safe to call more than once.
func (d *daemon) stop() {
	if d.cmd.Process != nil {
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.removeWAL()
	live.Lock()
	delete(live.set, d)
	live.Unlock()
}

// stopAll kills every daemon still running.
func stopAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// cpuTicks reads the daemon's user+system CPU time in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after ')'.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	// After ')': state(0) ... utime is field 14 overall, index 11 here.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc stat")
	}
	return u + st, nil
}

// clockTick is the kernel's USER_HZ, which Linux fixes at 100 for
// /proc/<pid>/stat on every architecture Go supports.
const clockTick = 100

// stats fetches /v1/stats.
func (d *daemon) stats(ctx context.Context) (server.StatsResponse, error) {
	var out server.StatsResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/stats", nil)
	if err != nil {
		return out, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}
