package client

import (
	"strings"
	"time"

	"besteffs/internal/metrics"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// clientCounterSpecs maps the legacy robustness-counter keys (the ones
// Counters() has always reported) to registry series. Keys are stable: tests
// and operators read them from Counters() snapshots.
var clientCounterSpecs = []struct{ key, name, help string }{
	{"retries", "besteffs_client_retries_total",
		"requests retried over a fresh connection after a transport failure"},
	{"reconnects", "besteffs_client_reconnects_total",
		"connections redialed after a drop, or first dialed for a node down at DialCluster"},
	{"probe_failures", "besteffs_client_probe_failures_total",
		"placement probes that failed at the transport level"},
	{"node_ejections", "besteffs_client_node_ejections_total",
		"nodes ejected after consecutive transport failures"},
	{"commit_fallbacks", "besteffs_client_commit_fallbacks_total",
		"placements that fell back to the next candidate node"},
}

// clientMetrics bundles a client's registry with its hot-path handles. One
// instance is shared across a cluster client's per-node connections, so the
// trajectory of retries and latencies reads as one client-side story.
type clientMetrics struct {
	reg      *metrics.Registry
	counters map[string]*metrics.Counter
	latency  map[wire.Op]*metrics.Histogram
}

func newClientMetrics() *clientMetrics {
	reg := metrics.NewRegistry()
	m := &clientMetrics{
		reg:      reg,
		counters: make(map[string]*metrics.Counter, len(clientCounterSpecs)),
		latency:  make(map[wire.Op]*metrics.Histogram),
	}
	for _, spec := range clientCounterSpecs {
		m.counters[spec.key] = reg.Counter(spec.name, spec.help)
	}
	const latHelp = "client-observed request latency (send through response decode, " +
		"including retries), by operation"
	for _, op := range wire.RequestOps() {
		m.latency[op] = reg.Histogram("besteffs_client_op_latency_seconds", latHelp,
			metrics.LatencyBuckets, metrics.L("op", strings.ToLower(op.String())))
	}
	return m
}

// Inc bumps one of the legacy-keyed robustness counters.
func (m *clientMetrics) Inc(key string) {
	if c, ok := m.counters[key]; ok {
		c.Inc()
	}
}

// Snapshot reports the robustness counters under their legacy keys.
func (m *clientMetrics) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(m.counters))
	for key, c := range m.counters {
		out[key] = c.Value()
	}
	return out
}

// observe records one completed round trip.
func (m *clientMetrics) observe(op wire.Op, d time.Duration) {
	if h, ok := m.latency[op]; ok {
		h.Observe(d.Seconds())
	}
}

// newTraceID mints the next request ID, e.g. "9f3a1c2b-00004d". The minting
// lives in the telemetry package now (same prefix+sequence scheme, same
// hand-built hot-path encoding), so client-minted root traces and
// besteffsctl-minted span roots draw from one namespace per process.
func newTraceID() wire.TraceID {
	return wire.TraceID(telemetry.NewTraceID())
}
