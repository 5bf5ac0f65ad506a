package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"besteffs/internal/client"
	"besteffs/internal/object"
)

// runOptions are what one run of one workload is asked to do.
type runOptions struct {
	seed   int64
	window time.Duration
	// traced adds a second, traced window on the same node after the plain
	// one, each a third of window long (the last third is the layer probes'
	// budget), and writes the span file.
	traced bool
}

// windowStats is what one measured window produced, merged over connections.
type windowStats struct {
	window    time.Duration
	putLat    []int64   // one per put call, ascending
	getLat    []int64   // ascending
	segRates  []float64 // completed puts per second in each segment of the window
	cpuSecs   float64   // the daemon's on-CPU time across the window
	puts, ops int64
	seen      storeCounters        // what the connections tallied over the window
	service   map[string]opLatency // server-side latency deltas over the window
	daemon    storeCounters        // the daemon's own counter deltas over the window
	spans     []*spanLog
}

// putRate is the window's put throughput: the median of the segment rates,
// so that one stall does not move it.
func (ws windowStats) putRate() float64 { return median(ws.segRates) }

// storeCounters are the daemon's cumulative admission counters.
type storeCounters struct {
	admitted, rejected, evicted, deleted int64
}

func (st nodeStatus) counters() storeCounters {
	c := st.Counters
	return storeCounters{c.Admitted, c.Rejected, c.Evicted, c.Deleted}
}

func (a storeCounters) plus(b storeCounters) storeCounters {
	return storeCounters{a.admitted + b.admitted, a.rejected + b.rejected, a.evicted + b.evicted, a.deleted + b.deleted}
}

func (a storeCounters) minus(b storeCounters) storeCounters {
	return storeCounters{a.admitted - b.admitted, a.rejected - b.rejected, a.evicted - b.evicted, a.deleted - b.deleted}
}

// runResult is the outcome of one run.
type runResult struct {
	workload  string
	endToEnd  []metric // the gating metrics of BENCHMARK.json
	perLayer  []metric // what the window showed of single layers; more on a traced run
	attempted int64
	failed    int64
	failures  []string
	tracePath string
	// plain is the untraced window; a traced run compares the layer probes
	// against it.
	plain windowStats
}

func (r *runResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// session is a node that has been set up for a workload -- spawned,
// prefilled, (for the durable workload) crashed and recovered, warmed up --
// and the connections driving it.
type session struct {
	d        *daemon
	workers  []*worker
	dataDir  string
	restored int64    // residents the daemon recovered at start; its counters exclude them
	failures []string // checks that failed during set-up
}

// close ends the session: connections, daemon, data.
func (se *session) close(graceful bool) {
	for _, w := range se.workers {
		w.cl.Close()
	}
	if graceful {
		se.d.stop()
	} else {
		se.d.kill()
	}
	if se.dataDir != "" {
		os.RemoveAll(se.dataDir)
	}
}

// setUp brings a node to the state the measured window starts from and
// reports how long that took, from spawning besteffsd to the end of warm-up.
func (h *harness) setUp(ctx context.Context, s *spec, seed int64) (se *session, took time.Duration, err error) {
	begin := time.Now()
	cfg := daemonConfig{shards: s.shards, capacity: s.capacity}
	se = &session{}
	if s.durable {
		se.dataDir = filepath.Join(h.dataRoot, fmt.Sprintf("%s-%d", s.name, seed))
		cfg.dataDir = se.dataDir
	}
	if se.d, err = h.start(cfg); err != nil {
		return nil, 0, err
	}
	defer func() {
		if err != nil {
			se.close(false)
		}
	}()
	conns, err := dial(s, se.d)
	if err != nil {
		return nil, 0, err
	}
	for i, c := range conns {
		se.workers = append(se.workers, newWorker(ctx, s, c, seed, i))
	}

	// Prefill to capacity (and past it where placement is uneven) with the
	// first connection, in batches: that is the cheapest way in, and the
	// workload's own stream only starts with warm-up.
	w0 := se.workers[0]
	for w0.seq.next < s.prefill {
		w0.putBatch()
	}
	if s.name == "mixed_sharded" {
		// Hand the newest prefilled IDs to the connections' rings, alternating,
		// so no two connections ever read or delete the same object.
		for i := recentCap * len(se.workers); i > 0; i-- {
			se.workers[i%len(se.workers)].recent.push(w0.seq.at(w0.seq.next - i))
		}
	}

	if s.durable {
		// Crash and recover: every acknowledged write must survive a SIGKILL.
		before, err := listSorted(ctx, w0.cl)
		if err != nil {
			return nil, 0, fmt.Errorf("list before crash: %w", err)
		}
		for _, w := range se.workers {
			w.cl.Close()
		}
		se.d.kill()
		cfg.checkpoint = 5 * time.Second
		// se.d keeps the killed daemon until the new one is up, so a failed
		// restart still has something to clean up.
		restarted, err := h.start(cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("restart after crash: %w", err)
		}
		se.d = restarted
		if conns, err = dial(s, se.d); err != nil {
			return nil, 0, err
		}
		for i, w := range se.workers {
			w.cl = conns[i]
		}
		after, err := listSorted(ctx, w0.cl)
		if err != nil {
			return nil, 0, fmt.Errorf("list after recovery: %w", err)
		}
		if !slices.Equal(before, after) {
			se.failures = append(se.failures, fmt.Sprintf(
				"recovery: %d residents before the crash, %d after, or different IDs", len(before), len(after)))
		}
		se.restored = int64(len(after))
	}

	runPhase(se.workers, func(w *worker) {
		for i := 0; i < s.warmup; i++ {
			w.step()
		}
	})
	return se, time.Since(begin), nil
}

// setups is how many times a run sets a node up. Only the last node is
// measured; setup_s is the median of the set-up times, so that one disturbed
// set-up does not decide it.
const setups = 3

// runWorkload performs one full run: set-ups, measured window(s), checks.
// An error means the run could not be carried out at all; failed operations
// and failed checks are counted in the result.
func (h *harness) runWorkload(s *spec, opt runOptions) (*runResult, error) {
	ctx := context.Background()
	res := &runResult{workload: s.name}
	var se *session
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if se != nil {
			res.absorb(se)
			se.close(false)
		}
		var took time.Duration
		var err error
		if se, took, err = h.setUp(ctx, s, opt.seed); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, took.Seconds())
	}
	defer se.close(true)
	d, workers := se.d, se.workers

	window := opt.window
	if opt.traced {
		window /= 3
	}
	plain, err := measure(d, workers, window, false)
	if err != nil {
		return nil, err
	}
	res.plain = plain
	res.checkWindow(s, plain)
	rss, err := d.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	res.endToEnd = []metric{
		{"setup_s", median(setupTimes), "s", setups},
		{"server_rss_mb", rss, "MiB", 1},
	}
	res.perLayer = plain.layerMetrics()

	if opt.traced {
		traced, err := measure(d, workers, window, true)
		if err != nil {
			return nil, err
		}
		res.checkWindow(s, traced)
		res.perLayer = append(res.perLayer, tracedLayerMetrics(s, plain, traced)...)
		byName, selfMS := summarize(traced.spans, window)
		hdr := traceHeader{
			Env: h.env, Workload: s.name, Seed: opt.seed, WindowS: window.Seconds(),
			Summary: byName, SelfMS: selfMS, Metrics: map[string]float64{},
		}
		for _, m := range res.perLayer {
			hdr.Metrics[m.Name] = m.Value
		}
		if res.tracePath, err = writeTrace(h.root, hdr, traced.spans); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}

	res.checkFinalState(ctx, s, d, workers, se.restored)
	res.absorb(se)
	return res, nil
}

// absorb adds a session's operation counts and failures to the result.
func (r *runResult) absorb(se *session) {
	for _, f := range se.failures {
		r.fail("%s", f)
	}
	for _, w := range se.workers {
		r.attempted += w.rec.attempted
		r.failed += w.rec.failed
		for _, f := range w.rec.failures {
			if len(r.failures) < 10 {
				r.failures = append(r.failures, f)
			}
		}
	}
}

// dial opens the workload's connections to the daemon.
func dial(s *spec, d *daemon) ([]*client.Client, error) {
	var conns []*client.Client
	for i := 0; i < s.conns; i++ {
		// One BATCH frame per PutBatch call, whatever the client's default.
		c, err := client.Connect(d.addr, client.WithMaxBatchSubs(batchWidth))
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, fmt.Errorf("connect: %w", err)
		}
		conns = append(conns, c)
	}
	return conns, nil
}

// runPhase runs fn once per worker, one goroutine per connection, and
// returns when all are done.
func runPhase(workers []*worker, fn func(*worker)) {
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// measure runs one closed-loop window of wall time and gathers what the
// connections and the daemon's own counters saw across it. No operation is
// in flight when the daemon is sampled, so counter deltas are exact.
func measure(d *daemon, workers []*worker, window time.Duration, traced bool) (windowStats, error) {
	ws := windowStats{window: window}
	st0, err := d.statusSnapshot()
	if err != nil {
		return ws, fmt.Errorf("status before window: %w", err)
	}
	svc0, err := d.serviceTimes()
	if err != nil {
		return ws, fmt.Errorf("metrics before window: %w", err)
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return ws, fmt.Errorf("cpu time before window: %w", err)
	}
	start := time.Now()
	end := start.Add(window)
	for i, w := range workers {
		var spans *spanLog
		if traced {
			spans = &spanLog{conn: i, start: start}
			ws.spans = append(ws.spans, spans)
		}
		w.rec.beginWindow(start, spans)
	}
	runPhase(workers, func(w *worker) {
		for time.Now().Before(end) {
			w.step()
		}
	})
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return ws, fmt.Errorf("cpu time after window: %w", err)
	}
	ws.cpuSecs = cpu1 - cpu0
	st1, err := d.statusSnapshot()
	if err != nil {
		return ws, fmt.Errorf("status after window: %w", err)
	}
	svc1, err := d.serviceTimes()
	if err != nil {
		return ws, fmt.Errorf("metrics after window: %w", err)
	}

	putWeight := int64(1)
	if workers[0].spec.name == "batch_pipeline" {
		putWeight = batchWidth
	}
	var puts []sample
	for _, w := range workers {
		r := &w.rec
		puts = append(puts, r.putLat...)
		ws.getLat = append(ws.getLat, r.getLat...)
		ws.puts += r.puts
		ws.ops += r.ops
		ws.seen = ws.seen.plus(storeCounters{r.admitted, r.rejected, r.evicted, r.deleted})
		r.spans = nil
	}
	ws.segRates = segmentRates(puts, window, segments, putWeight)
	for _, p := range puts {
		ws.putLat = append(ws.putLat, p.lat)
	}
	slices.Sort(ws.putLat)
	slices.Sort(ws.getLat)
	ws.service = make(map[string]opLatency)
	for op, l := range svc1 {
		ws.service[op] = opLatency{sum: l.sum - svc0[op].sum, count: l.count - svc0[op].count}
	}
	ws.daemon = st1.counters().minus(st0.counters())
	return ws, nil
}

// checkWindow compares what the connections tallied with the daemon's own
// counter deltas across the same window.
func (r *runResult) checkWindow(s *spec, ws windowStats) {
	if ws.seen != ws.daemon {
		r.fail("%s: connections counted %+v, the daemon %+v", s.name, ws.seen, ws.daemon)
	}
	if s.name == "saturated_put" && (ws.seen.admitted != ws.puts || ws.seen.evicted != ws.puts) {
		r.fail("saturated_put: %d puts but %d admitted and %d evicted", ws.puts, ws.seen.admitted, ws.seen.evicted)
	}
	if len(ws.putLat) == 0 || len(ws.getLat) == 0 {
		r.fail("%s: window recorded %d puts and %d gets", s.name, len(ws.putLat), len(ws.getLat))
	}
}

// checkFinalState verifies the node's accounting and resident set once the
// last window closed. restored is the resident count the daemon started
// with (after a recovery), which its counters do not include.
func (r *runResult) checkFinalState(ctx context.Context, s *spec, d *daemon, workers []*worker, restored int64) {
	st, err := d.statusSnapshot()
	if err != nil {
		r.fail("final status: %v", err)
		return
	}
	if st.Used > st.Capacity {
		r.fail("used %d exceeds capacity %d", st.Used, st.Capacity)
	}
	c := st.Counters
	if got := restored + c.Admitted - c.Evicted - c.Deleted; got != st.Objects {
		r.fail("accounting: restored %d + admitted %d - evicted %d - deleted %d = %d, but %d objects resident",
			restored, c.Admitted, c.Evicted, c.Deleted, got, st.Objects)
	}
	have, err := listSorted(ctx, workers[0].cl)
	if err != nil {
		r.fail("final list: %v", err)
		return
	}
	if int64(len(have)) != st.Objects {
		r.fail("list has %d IDs, status says %d objects", len(have), st.Objects)
	}
	resident := make(map[object.ID]bool, len(have))
	for _, id := range have {
		resident[id] = true
	}
	if s.conns == 1 {
		// The resident set is exactly the newest IDs of the one stream.
		w := workers[0]
		if len(have) != s.residents() {
			r.fail("%d residents at the end, want %d", len(have), s.residents())
		}
		for i := 1; i <= s.residents(); i++ {
			if id := w.seq.at(w.seq.next - i); !resident[id] {
				r.fail("%s should be resident at the end and is not", id)
				break
			}
		}
		return
	}
	for _, w := range workers {
		for i := 0; i < w.recent.n; i++ {
			if id := w.recent.at(i); !resident[id] {
				r.fail("%s should be resident at the end and is not", id)
				break
			}
		}
	}
}

// layerMetrics are the per-layer metrics every window yields. The first
// four are the client's view of the node under the workload. They carry the
// names ISSUE 12 gave the end-to-end timings, prefixed "client.": on this
// shared box none of them repeats within its 10 % bound from one set of runs
// to the next, so they are reported and do not gate (see README.md).
func (ws windowStats) layerMetrics() []metric {
	evPerPut, rejectRatio := 0.0, 0.0
	if ws.puts > 0 {
		evPerPut = float64(ws.seen.evicted) / float64(ws.puts)
		rejectRatio = float64(ws.seen.rejected) / float64(ws.puts)
	}
	return []metric{
		{"client.put_ops_s", ws.putRate(), "1/s", len(ws.segRates)},
		{"client.put_p50_us", percentile(ws.putLat, 0.5) / 1e3, "us", len(ws.putLat)},
		{"client.get_p50_us", percentile(ws.getLat, 0.5) / 1e3, "us", len(ws.getLat)},
		{"client.server_cpu_us_per_op", ws.cpuSecs * 1e6 / float64(ws.ops), "us", int(ws.ops)},
		{"client.put_p99_us", percentile(ws.putLat, 0.99) / 1e3, "us", len(ws.putLat)},
		{"client.get_p99_us", percentile(ws.getLat, 0.99) / 1e3, "us", len(ws.getLat)},
		{"store.evictions_per_put", evPerPut, "ratio", int(ws.puts)},
		{"store.reject_ratio", rejectRatio, "ratio", int(ws.puts)},
	}
}

// tracedLayerMetrics are what only a traced run yields: the server's own
// service times over the traced window and the cost of tracing.
func tracedLayerMetrics(s *spec, plain, traced windowStats) []metric {
	putOp := "put"
	if s.name == "batch_pipeline" {
		putOp = "batch"
	}
	serviceUS := func(op string) (float64, int) {
		l := traced.service[op]
		if l.count == 0 {
			return 0, 0
		}
		return l.sum / l.count * 1e6, int(l.count)
	}
	putSvc, putN := serviceUS(putOp)
	getSvc, getN := serviceUS("get")
	return []metric{
		{"server.put_service_us", putSvc, "us", putN},
		{"server.get_service_us", getSvc, "us", getN},
		{"trace.overhead_ratio", plain.putRate() / traced.putRate(), "ratio", len(plain.segRates)},
	}
}
