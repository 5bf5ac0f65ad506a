package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"besteffs/internal/client"
)

// harness owns what a benchmark process leaves behind: the scratch
// directory, the data directory and every daemon it spawned. close (and the
// signal handler in main) stops the daemons, waits for them, and removes
// both directories.
type harness struct {
	root      string // repository root
	workDir   string // scratch inside the checkout: daemon logs
	dataRoot  string // parent of durable data directories
	dataFS    string // filesystem type of dataRoot
	daemonBin string
	env       environment
	// genCPUs and daemonCPUs are the CPU sets the two sides are pinned to
	// (see placeCPUs).
	genCPUs, daemonCPUs cpuSet

	mu   sync.Mutex
	live map[*daemon]struct{}
}

// findRoot walks up from the working directory to the module that holds
// cmd/besteffsd, so the harness works from the repository root (the
// benchmark command) and from bench/ (go run -C bench .).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "besteffsd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/besteffsd not found in any parent directory; run from the besteffs repository")
		}
		dir = parent
	}
}

// newHarness builds besteffsd (untimed) and prepares the scratch and data
// directories.
func newHarness() (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	h := &harness{
		root:      root,
		workDir:   filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid())),
		daemonBin: filepath.Join(build, "besteffsd"),
		live:      make(map[*daemon]struct{}),
	}
	if err := os.MkdirAll(h.workDir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "build", "-o", h.daemonBin, "./cmd/besteffsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		h.close()
		return nil, fmt.Errorf("build besteffsd: %w\n%s", err, out)
	}
	// Pin only now: the build above was free to use every core.
	allowed, err := allowedCPUs()
	if err != nil {
		h.close()
		return nil, err
	}
	h.genCPUs, h.daemonCPUs = placeCPUs(allowed)
	if err := pinProcess(&h.genCPUs); err != nil {
		h.close()
		return nil, err
	}
	h.dataRoot, h.dataFS = chooseDataRoot(h.workDir)
	h.env = readEnvironment(root, h.dataFS, h.genCPUs.list(), h.daemonCPUs.list())
	return h, nil
}

// chooseDataRoot puts durable data on /dev/shm when that is a writable
// tmpfs: the shared VM's disk flush varies by tens of percent between runs
// of identical code, and a code change cannot move it. Elsewhere the data
// lives in the scratch directory and the numbers are that disk's.
func chooseDataRoot(workDir string) (dir, fsType string) {
	if fsTypeOf("/dev/shm") == "tmpfs" {
		d, err := os.MkdirTemp("/dev/shm", "besteffs-bench-")
		if err == nil {
			return d, "tmpfs"
		}
	}
	return workDir, fsTypeOf(workDir)
}

// fsTypeOf names the filesystem holding path from /proc/mounts (longest
// mount-point prefix wins), "unknown" when that cannot be read.
func fsTypeOf(path string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, bestLen := "unknown", -1
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/") {
			if len(mp) > bestLen {
				best, bestLen = f[2], len(mp)
			}
		}
	}
	return best
}

// close stops every live daemon and removes the directories.
func (h *harness) close() {
	h.mu.Lock()
	live := make([]*daemon, 0, len(h.live))
	for d := range h.live {
		live = append(live, d)
	}
	h.mu.Unlock()
	for _, d := range live {
		d.kill()
	}
	if h.dataRoot != "" && h.dataRoot != h.workDir {
		os.RemoveAll(h.dataRoot)
	}
	os.RemoveAll(h.workDir)
}

// daemonConfig is the part of besteffsd's command line a workload chooses.
type daemonConfig struct {
	shards     int
	capacity   int64
	dataDir    string        // "" = in memory
	checkpoint time.Duration // with dataDir; 0 disables the loop
}

// daemon is one running besteffsd.
type daemon struct {
	h       *harness
	cmd     *exec.Cmd
	addr    string // wire protocol
	status  string // HTTP status + /metrics
	logPath string
	exited  chan struct{} // closed once Wait returned
	readyIn time.Duration // spawn -> first STAT answered
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start spawns besteffsd and returns once it answered a STAT.
func (h *harness) start(cfg daemonConfig) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	status, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", addr, "-status", status,
		"-shards", strconv.Itoa(cfg.shards),
		"-capacity", strconv.FormatInt(cfg.capacity, 10),
	}
	if cfg.dataDir != "" {
		args = append(args, "-data", cfg.dataDir, "-checkpoint", cfg.checkpoint.String())
	}
	d := &daemon{
		h: h, addr: addr, status: status,
		logPath: filepath.Join(h.workDir, "besteffsd-"+strings.ReplaceAll(addr, ":", "-")+".log"),
		exited:  make(chan struct{}),
	}
	logf, err := os.Create(d.logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	d.cmd = exec.Command(h.daemonBin, args...)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(h.env.DaemonProcs))
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	spawned := time.Now()
	if err := startPinned(d.cmd.Start, &h.daemonCPUs, &h.genCPUs); err != nil {
		return nil, fmt.Errorf("spawn besteffsd: %w", err)
	}
	h.mu.Lock()
	h.live[d] = struct{}{}
	h.mu.Unlock()
	go func() {
		d.cmd.Wait() //nolint:errcheck // exit status of a signalled daemon carries nothing
		close(d.exited)
	}()
	deadline := spawned.Add(20 * time.Second)
	for {
		if c, err := client.Connect(addr, client.WithTimeout(time.Second)); err == nil {
			_, err = c.StatCtx(context.Background())
			c.Close()
			if err == nil {
				break
			}
		}
		select {
		case <-d.exited:
			d.kill() // already gone; takes it off the live list
			return nil, fmt.Errorf("besteffsd exited during start-up:\n%s", d.logTail())
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("besteffsd did not answer STAT within 20s:\n%s", d.logTail())
		}
		time.Sleep(time.Millisecond)
	}
	d.readyIn = time.Since(spawned)
	return d, nil
}

// logTail returns the end of the daemon's log for error reports.
func (d *daemon) logTail() string {
	data, err := os.ReadFile(d.logPath)
	if err != nil {
		return err.Error()
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// signalAndWait delivers sig and waits for the process to end, escalating
// to SIGKILL after the grace period.
func (d *daemon) signalAndWait(sig syscall.Signal, grace time.Duration) {
	d.cmd.Process.Signal(sig) //nolint:errcheck // already-exited is fine
	select {
	case <-d.exited:
	case <-time.After(grace):
		d.cmd.Process.Kill() //nolint:errcheck // already-exited is fine
		<-d.exited
	}
	d.h.mu.Lock()
	delete(d.h.live, d)
	d.h.mu.Unlock()
}

// stop shuts the daemon down gracefully (SIGTERM: drain, final checkpoint).
func (d *daemon) stop() { d.signalAndWait(syscall.SIGTERM, 10*time.Second) }

// kill is the crash: SIGKILL, nothing flushed by the process.
func (d *daemon) kill() { d.signalAndWait(syscall.SIGKILL, 10*time.Second) }

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux architecture Go supports.
const clockTick = 100

// parseProcStatCPU extracts utime+stime, in seconds, from the contents of
// /proc/<pid>/stat. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return float64(utime+stime) / clockTick, nil
}

// parseVmHWM extracts the peak resident set, in MiB, from the contents of
// /proc/<pid>/status.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// cpuSeconds reads the daemon's consumed CPU time: the on-CPU nanoseconds of
// every thread from /proc/<pid>/task/*/schedstat where the kernel keeps them
// (they are what utime+stime are derived from, before rounding to 10 ms
// ticks), else utime+stime from /proc/<pid>/stat.
func (d *daemon) cpuSeconds() (float64, error) {
	pid := d.cmd.Process.Pid
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var ns uint64
	for _, t := range tasks {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			if ns == 0 {
				return d.cpuSecondsFromStat()
			}
			continue // the thread exited between the listing and the read
		}
		v, err := parseSchedstatRuntime(string(data))
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// parseSchedstatRuntime extracts the on-CPU nanoseconds, the first field of
// a schedstat file.
func parseSchedstatRuntime(schedstat string) (uint64, error) {
	f := strings.Fields(schedstat)
	if len(f) != 3 {
		return 0, fmt.Errorf("schedstat: %d fields, want 3", len(f))
	}
	return strconv.ParseUint(f[0], 10, 64)
}

// cpuSecondsFromStat is the tick-resolution fallback.
func (d *daemon) cpuSecondsFromStat() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(data))
}

// peakRSSMiB reads the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(data))
}

// nodeStatus is the part of the daemon's status JSON the harness checks.
type nodeStatus struct {
	Capacity int64 `json:"capacity_bytes"`
	Used     int64 `json:"used_bytes"`
	Objects  int64 `json:"objects"`
	Counters struct {
		Admitted int64 `json:"admitted"`
		Rejected int64 `json:"rejected"`
		Evicted  int64 `json:"evicted"`
		Deleted  int64 `json:"deleted"`
	} `json:"counters"`
	Recovery *struct {
		Residents int64 `json:"residents"`
	} `json:"recovery"`
}

// httpGet fetches one path of the daemon's status listener.
func (d *daemon) httpGet(path string) ([]byte, error) {
	resp, err := http.Get("http://" + d.status + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// statusSnapshot fetches the daemon's counters.
func (d *daemon) statusSnapshot() (nodeStatus, error) {
	var st nodeStatus
	body, err := d.httpGet("/")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("status json: %w", err)
	}
	return st, nil
}

// opLatency is the sum and count of besteffs_op_latency_seconds for one op.
type opLatency struct {
	sum   float64
	count float64
}

// serviceTimes scrapes /metrics for the server-side latency histograms'
// sum and count, keyed by op label.
func (d *daemon) serviceTimes() (map[string]opLatency, error) {
	body, err := d.httpGet("/metrics")
	if err != nil {
		return nil, err
	}
	return parseServiceTimes(string(body)), nil
}

// parseServiceTimes reads the _sum and _count lines of
// besteffs_op_latency_seconds out of a Prometheus text exposition.
func parseServiceTimes(text string) map[string]opLatency {
	out := make(map[string]opLatency)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, "besteffs_op_latency_seconds_")
		if !ok {
			continue
		}
		kind, rest, ok := strings.Cut(rest, `{op="`)
		if !ok || (kind != "sum" && kind != "count") {
			continue
		}
		op, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		l := out[op]
		if kind == "sum" {
			l.sum = v
		} else {
			l.count = v
		}
		out[op] = l
	}
	return out
}
