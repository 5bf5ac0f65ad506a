package server

import (
	"encoding/json"
	"net/http"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/store"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// Status is the observability snapshot a node exposes over HTTP.
type Status struct {
	// Now is the node's virtual time.
	Now time.Duration `json:"now_nanos"`
	// Capacity, Used and Free are byte counts.
	Capacity int64 `json:"capacity_bytes"`
	Used     int64 `json:"used_bytes"`
	Free     int64 `json:"free_bytes"`
	// Objects is the resident count.
	Objects int `json:"objects"`
	// Density is the instantaneous storage importance density: the
	// signal clients read before choosing annotations.
	Density float64 `json:"density"`
	// Policy names the admission policy.
	Policy string `json:"policy"`
	// Counters are cumulative admission statistics.
	Counters store.Counters `json:"counters"`
	// Net is the connection-level robustness counters: accepted and
	// limit-rejected connections, recovered panics, read timeouts and
	// force-closed connections at drain, plus the active-connection gauge.
	Net map[string]int64 `json:"net"`
	// DensityHistory is the sampled density trajectory (oldest first),
	// present when the node runs with density sampling enabled.
	DensityHistory []telemetry.DensitySample `json:"density_history,omitempty"`
	// Scrub is cumulative scrub activity: payloads verified and objects
	// quarantined for corruption or missing bytes.
	Scrub ScrubStats `json:"scrub"`
	// EventsRecorded counts flight-recorder events ever recorded; Events is
	// the recorder's tail (most recent last), the same black box the EVENTS
	// wire op dumps.
	EventsRecorded uint64            `json:"events_recorded"`
	Events         []telemetry.Event `json:"events,omitempty"`
	// Recovery describes how the node last came up, present after a
	// RestoreDir recovery.
	Recovery *RestoreStats `json:"recovery,omitempty"`
	// Blob is the payload log's space accounting -- segments, live and
	// on-disk bytes, bytes the cleaner copied -- present on a node that
	// keeps payloads in files.
	Blob *blob.Stats `json:"blob,omitempty"`
	// Shards is the per-shard breakdown of the merged view above, one entry
	// per shard even when unsharded, as the STAT wire op sends it.
	Shards []StatusShard `json:"shards"`
}

// StatusShard is one shard's slice of the node state: the STAT answer's
// entry for the shard, with its index and free bytes.
type StatusShard struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	wire.ShardStat
	// Free is the shard's unallocated bytes.
	Free int64 `json:"free_bytes"`
}

// statusEventTail bounds how much flight-recorder history status JSON
// carries; the EVENTS wire op serves the full ring.
const statusEventTail = 64

// StatusSnapshot assembles the current status.
func (s *Server) StatusSnapshot() Status {
	now := s.clock()
	st := s.statResult(now)
	perShard := make([]StatusShard, len(st.Shards))
	for i, sh := range st.Shards {
		perShard[i] = StatusShard{Shard: i, ShardStat: sh, Free: sh.Capacity - sh.Used}
	}
	var payloadLog *blob.Stats
	if log, ok := s.blobs.(*blob.FileStore); ok {
		st := log.Stats()
		payloadLog = &st
	}
	return Status{
		Now:            now,
		Capacity:       st.Capacity,
		Used:           st.Used,
		Free:           st.Capacity - st.Used,
		Objects:        int(st.Objects),
		Density:        st.Density,
		Policy:         s.engine.Policy().Name(),
		Counters:       s.engine.CountersSnapshot(),
		Net:            s.NetCounters(),
		DensityHistory: s.DensitySamples(),
		Scrub:          s.ScrubStats(),
		EventsRecorded: s.events.Len(),
		Events:         s.events.Tail(statusEventTail),
		Recovery:       s.lastRestore,
		Blob:           payloadLog,
		Shards:         perShard,
	}
}

// statResult answers the STAT wire op: the merged node view plus the
// per-shard breakdown (one entry even when unsharded, so clients need no
// special case).
func (s *Server) statResult(now time.Duration) *wire.StatResult {
	res := &wire.StatResult{
		Capacity: s.engine.Capacity(),
		Used:     s.engine.Used(),
		Objects:  uint32(s.engine.Len()),
		Density:  s.engine.DensityAt(now),
		Shards:   make([]wire.ShardStat, s.engine.NumShards()),
	}
	for i := range res.Shards {
		u := s.engine.Shard(i)
		sm := u.SampleAt(now)
		res.Shards[i] = wire.ShardStat{
			Capacity: u.Capacity(),
			Used:     sm.Used,
			Objects:  uint32(u.Len()),
			Density:  sm.Density,
			Boundary: sm.Boundary,
		}
	}
	return res
}

// StatusHandler serves the status snapshot as JSON on GET (headers only on
// HEAD); other methods get 405. Snapshots are point-in-time, so responses
// are marked uncacheable. Mount it on a private interface -- it is
// observability, not part of the storage protocol.
func (s *Server) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		if r.Method == http.MethodHead {
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.StatusSnapshot()); err != nil {
			s.log.Error("encode status", "err", err)
		}
	})
}
