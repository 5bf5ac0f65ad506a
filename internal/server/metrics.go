package server

import (
	"net/http"
	"strings"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/metrics"
	"besteffs/internal/store"
	"besteffs/internal/wire"
)

// storeCounters shortens the unit-counter plumbing below.
type storeCounters = store.Counters

// instrumentedOps lists every request opcode that gets its own
// requests-counter and latency-histogram series. Unknown or malformed
// frames fall into the op="other" series.
var instrumentedOps = wire.RequestOps()

// opLabels caches the rendered label for every request opcode: opLabel runs
// once per recorded span, and lowercasing allocates.
var opLabels = func() map[wire.Op]string {
	m := make(map[wire.Op]string, len(instrumentedOps))
	for _, op := range instrumentedOps {
		m[op] = strings.ToLower(op.String())
	}
	return m
}()

// opLabel renders an opcode as a Prometheus label value ("put", "get",
// "density_history", ...).
func opLabel(op wire.Op) string {
	if l, ok := opLabels[op]; ok {
		return l
	}
	return strings.ToLower(op.String())
}

// serverMetrics bundles the node's registry with the hot-path instrument
// handles, so request handling never takes the registry's registration
// lock: every per-request update is a map read plus atomic ops.
type serverMetrics struct {
	reg *metrics.Registry

	connsAccepted      *metrics.Counter
	connsRejectedLimit *metrics.Counter
	connsForceClosed   *metrics.Counter
	panicsRecovered    *metrics.Counter
	readTimeouts       *metrics.Counter
	connsActive        *metrics.Gauge

	requests     map[wire.Op]*metrics.Counter
	latency      map[wire.Op]*metrics.Histogram
	otherReqs    *metrics.Counter
	otherLatency *metrics.Histogram
	tracedReqs   *metrics.Counter
	unknownOps   *metrics.Counter
	putBytes     *metrics.Histogram
}

func newServerMetrics() *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		connsAccepted: reg.Counter("besteffs_conns_accepted_total",
			"TCP connections accepted"),
		connsRejectedLimit: reg.Counter("besteffs_conns_rejected_limit_total",
			"connections closed at the -max-conns limit"),
		connsForceClosed: reg.Counter("besteffs_conns_force_closed_total",
			"connections force-closed when the drain timeout expired"),
		panicsRecovered: reg.Counter("besteffs_panics_recovered_total",
			"panics recovered in connection handlers"),
		readTimeouts: reg.Counter("besteffs_read_timeouts_total",
			"connections dropped at the idle read deadline"),
		connsActive: reg.Gauge("besteffs_conns_active",
			"currently open client connections"),
		requests: make(map[wire.Op]*metrics.Counter, len(instrumentedOps)),
		latency:  make(map[wire.Op]*metrics.Histogram, len(instrumentedOps)),
		tracedReqs: reg.Counter("besteffs_traced_requests_total",
			"requests that carried a client trace ID"),
		unknownOps: reg.Counter("besteffs_unknown_ops_total",
			"well-formed frames whose opcode has no request handler"),
		putBytes: reg.Histogram("besteffs_put_object_bytes",
			"payload sizes offered via PUT and UPDATE", metrics.SizeBuckets),
	}
	const (
		reqHelp = "requests served, by operation"
		latHelp = "server-side request latency (decode through response encode), by operation"
	)
	for _, op := range instrumentedOps {
		l := metrics.L("op", opLabel(op))
		m.requests[op] = reg.Counter("besteffs_requests_total", reqHelp, l)
		m.latency[op] = reg.Histogram("besteffs_op_latency_seconds", latHelp,
			metrics.LatencyBuckets, l)
	}
	other := metrics.L("op", "other")
	m.otherReqs = reg.Counter("besteffs_requests_total", reqHelp, other)
	m.otherLatency = reg.Histogram("besteffs_op_latency_seconds", latHelp,
		metrics.LatencyBuckets, other)
	return m
}

// observe records one served request.
func (m *serverMetrics) observe(op wire.Op, traced bool, d time.Duration) {
	reqs, lat := m.otherReqs, m.otherLatency
	if h, ok := m.latency[op]; ok {
		reqs, lat = m.requests[op], h
	}
	reqs.Inc()
	lat.Observe(d.Seconds())
	if traced {
		m.tracedReqs.Inc()
	}
}

// registerUnitMetrics exposes the storage engine's merged live state
// through the registry: admission counters read straight from the shards
// (no double bookkeeping) and the paper's operational signals -- density and the
// importance boundary -- as gauges evaluated at scrape time.
func (s *Server) registerUnitMetrics() {
	reg := s.met.reg
	reg.GaugeFunc("besteffs_density",
		"instantaneous storage importance density (Section 5.1.2), in [0,1]",
		func() float64 { return s.engine.DensityAt(s.clock()) })
	reg.GaugeFunc("besteffs_importance_boundary",
		"importance an arrival must exceed to claim the next byte (0 while free space remains)",
		func() float64 { return s.engine.BoundaryAt(s.clock()) })
	reg.GaugeFunc("besteffs_capacity_bytes", "configured storage capacity",
		func() float64 { return float64(s.engine.Capacity()) })
	reg.GaugeFunc("besteffs_used_bytes", "bytes allocated to resident objects",
		func() float64 { return float64(s.engine.Used()) })
	reg.GaugeFunc("besteffs_free_bytes", "unallocated bytes",
		func() float64 { return float64(s.engine.Free()) })
	reg.GaugeFunc("besteffs_objects", "resident object count",
		func() float64 { return float64(s.engine.Len()) })
	counter := func(name, help string, read func(c storeCounters) int64) {
		reg.CounterFunc(name, help, func() float64 {
			return float64(read(s.engine.CountersSnapshot()))
		})
	}
	counter("besteffs_admitted_total", "objects admitted",
		func(c storeCounters) int64 { return c.Admitted })
	counter("besteffs_rejected_total", "objects rejected by the admission policy",
		func(c storeCounters) int64 { return c.Rejected })
	counter("besteffs_evicted_total", "objects preempted or swept",
		func(c storeCounters) int64 { return c.Evicted })
	counter("besteffs_deleted_total", "objects explicitly deleted",
		func(c storeCounters) int64 { return c.Deleted })
	counter("besteffs_admitted_bytes_total", "bytes admitted",
		func(c storeCounters) int64 { return c.AdmittedBytes })
	counter("besteffs_evicted_bytes_total", "bytes reclaimed by eviction",
		func(c storeCounters) int64 { return c.EvictedBytes })
	if log, ok := s.blobs.(*blob.FileStore); ok {
		// The payload log's space accounting; the status JSON's "blob"
		// object is the same snapshot.
		reg.GaugeFunc("besteffs_blob_segments", "payload log segment files",
			func() float64 { return float64(log.Stats().Segments) })
		reg.GaugeFunc("besteffs_blob_live_bytes", "payload log bytes in records of resident objects, framing included",
			func() float64 { return float64(log.Stats().LiveBytes) })
		reg.GaugeFunc("besteffs_blob_disk_bytes", "payload log bytes on disk (at most 2 x live + 3 segments after a put)",
			func() float64 { return float64(log.Stats().DiskBytes) })
		reg.CounterFunc("besteffs_blob_cleaned_bytes_total", "payload log bytes the cleaner copied forward",
			func() float64 { return float64(log.Stats().CleanedBytes) })
	}
}

// Metrics returns the node's metrics registry (tests embed extra scrapes).
func (s *Server) Metrics() *metrics.Registry { return s.met.reg }

// MetricsHandler serves the node's registry in the Prometheus text format.
// Mount it next to StatusHandler on the private mux.
func (s *Server) MetricsHandler() http.Handler { return metrics.Handler(s.met.reg) }
