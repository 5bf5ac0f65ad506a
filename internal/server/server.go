// Package server implements a live Besteffs storage node: a TCP server
// exposing the wire protocol over a policy-governed storage unit. It is the
// networked counterpart of the simulated units -- the same store.Unit
// engine, the same temporal-importance admission, evaluated against real
// wall-clock object ages.
//
// The paper's Besteffs is "object level, fully distributed ... with no
// centralized components"; a deployment is simply many of these nodes plus
// clients running the Section 5.3 placement against them (see
// internal/client.ClusterClient). Payload bytes live in a blob.Store beside
// the unit metadata; the commit that ends every mutation drops the bytes of
// whatever the mutation evicted.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime/debug"
	"sync"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/journal"
	"besteffs/internal/metrics"
	"besteffs/internal/object"
	"besteffs/internal/store"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// Clock reports the node's current virtual time; object ages are measured
// against it. The default clock is wall time since server construction.
type Clock func() time.Duration

// shard is one slice of the node: a store unit plus the durability state
// that must stay consistent with it. Every shard owns its own WAL segment
// stream (nil on a node without persistence) and write lock, so mutations on different shards contend on nothing but the blob store.
type shard struct {
	idx  int
	unit *store.Unit
	wal  *journal.WAL

	// mu is the shard's write lock. Every mutation holds it from before its
	// first unit call until commit has written its journal records, so the
	// journal's order is the unit's order and no mutation sees another's
	// half-committed state; the coordinated Checkpoint holds every shard's
	// across the WAL barriers and resident snapshots, which makes the
	// checkpoint a clean cut per shard and one consistent cut for the node.
	// DESIGN.md "The mutation discipline" has the reasons.
	mu sync.Mutex

	// The open mutation's staging, owned by mu's holder and emptied by
	// commit. recs is what the mutation journals, in unit order: each
	// removal as the unit performed it -- the eviction hook collects its
	// victims here -- then the KindPut of each admission. objs is the group
	// offered to the unit; ids and payloads are its admitted members as
	// blob.Store.PutBatch takes them.
	recs     []journal.Record
	objs     []*object.Object
	ids      []object.ID
	payloads [][]byte
}

// Server is one Besteffs storage node.
type Server struct {
	engine *store.Engine
	shards []*shard
	clock  Clock
	log    *slog.Logger
	blobs  blob.Store

	maintenance time.Duration

	// pendingWALs stages WithWALs for New to attach once the shards exist.
	pendingWALs []*journal.WAL

	checkpointEvery time.Duration

	// Online scrub (zero = disabled).
	scrubEvery time.Duration
	scrub      scrubMetrics

	// lastRestore describes the most recent recovery, for status JSON
	// (nil when the node started empty). Written once before Serve.
	lastRestore *RestoreStats

	// Robustness knobs (zero = disabled, the historical behavior).
	reqTimeout   time.Duration
	drainTimeout time.Duration
	connLimit    int

	// Density sampling (zero/nil = disabled).
	sampleEvery time.Duration
	samples     *telemetry.Ring[telemetry.DensitySample]

	// maxBatchSubs caps sub-requests per BATCH frame (wire.MaxBatchSubs
	// is the protocol ceiling; operators may lower it).
	maxBatchSubs int

	// Cluster components, attached by the daemon before Serve (nil on a
	// single-node server; the cluster opcodes answer CodeBadRequest).
	membership   Membership
	repl         Replicator
	repairedGets *metrics.Counter

	// Per-peer index mirrors behind INDEX_DELTA: each anti-entropy caller's
	// last-acknowledged index snapshot, so steady-state passes ship only
	// changes. Bounded (maxPeerMirrors); eviction just forces that peer back
	// to a full exchange.
	peerIdxMu sync.Mutex
	peerIdx   map[string]*peerMirror

	// Telemetry: the span ring behind TRACE_DUMP and the flight recorder
	// behind EVENTS. Always on -- both are fixed-size and lock-free.
	spans  *telemetry.Ring[telemetry.Span]
	events *telemetry.Ring[telemetry.Event]
	// nodeAddr is the advertised address stamped onto recorded spans and
	// telemetry dumps ("" on a single-node server).
	nodeAddr string
	// slowThreshold makes requests at or above it log their span tree at
	// WARN (0 disables).
	slowThreshold time.Duration

	met *serverMetrics
}

// Option configures a Server.
type Option func(*Server)

// WithClock overrides the node clock (tests use a manual clock).
func WithClock(c Clock) Option {
	return func(s *Server) {
		if c != nil {
			s.clock = c
		}
	}
}

// WithLogger sets the server's logger (default: slog.Default).
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.log = l
		}
	}
}

// WithBlobStore sets where payload bytes live (default: in memory). The
// besteffsd daemon passes a blob.FileStore so payloads survive on the
// node's disk, matching the paper's "unused desktop storage" deployment.
func WithBlobStore(b blob.Store) Option {
	return func(s *Server) {
		if b != nil {
			s.blobs = b
		}
	}
}

// WithMaintenance runs a background sweep every interval that reclaims
// expired residents (importance zero) and their payloads. The paper makes
// no availability promise past expiry and lets expired objects linger
// absent pressure; a live node usually wants the bytes back eagerly.
// The sweep starts with Serve and stops with its context.
func WithMaintenance(interval time.Duration) Option {
	return func(s *Server) {
		if interval > 0 {
			s.maintenance = interval
		}
	}
}

// WithWALs records the node's history -- every admission, eviction, delete
// and rejuvenation -- to one segmented write-ahead log per shard, in shard
// order, so RestoreDir can rebuild the node after a restart and Checkpoint
// can bound the history kept. Append failures are logged, never fatal to
// requests. New fails unless the count matches the engine's shard count; use
// OpenShardWALs to open a matching set from a data directory.
func WithWALs(wals []*journal.WAL) Option {
	return func(s *Server) {
		if len(wals) > 0 {
			s.pendingWALs = wals
		}
	}
}

// WithCheckpointInterval checkpoints the node's live state every interval,
// bounding both recovery time and journal disk usage to the live data set
// rather than the full write history. Requires WithWALs; the loop starts
// with Serve and stops with its context (0 disables).
func WithCheckpointInterval(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.checkpointEvery = d
		}
	}
}

// WithScrub runs a background scrub pass every interval: each resident's
// payload is CRC-verified in place, and corrupt or missing payloads are
// quarantined -- evicted and counted, never served. The loop starts with
// Serve and stops with its context (0 disables; ScrubNow is always
// available).
func WithScrub(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.scrubEvery = d
		}
	}
}

// WithReqTimeout is besteffsd's -req-timeout, the one connection deadline:
// a connection that sends no request for d is closed, and writing a
// group's responses may take at most d. A hung, half-open or non-reading
// peer can otherwise pin a handler goroutine forever (0 disables).
func WithReqTimeout(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.reqTimeout = d
		}
	}
}

// WithConnLimit caps concurrent connections; excess connections are closed
// immediately on accept and counted (0 = unlimited).
func WithConnLimit(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.connLimit = n
		}
	}
}

// WithDrainTimeout makes shutdown graceful: instead of closing every
// connection the moment Serve's context is cancelled, the server stops
// accepting, lets in-flight requests finish their responses for up to d,
// then force-closes stragglers. Daemons use this so the final responses
// and journal appends are not torn by shutdown ordering (0 keeps the
// immediate-close behavior).
func WithDrainTimeout(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.drainTimeout = d
		}
	}
}

// WithDensitySampling records a density trajectory sample (density, used
// bytes, importance boundary) every interval into a ring holding the most
// recent size samples. The trajectory is exposed through status JSON, the
// DENSITY_HISTORY wire request (besteffsctl density) and /metrics scrapes.
// Sampling starts with Serve and stops with its context.
func WithDensitySampling(interval time.Duration, size int) Option {
	return func(s *Server) {
		if interval > 0 && size > 0 {
			s.sampleEvery = interval
			s.samples = telemetry.NewSampleRing(size)
		}
	}
}

// WithNodeAddr sets the advertised address stamped onto recorded spans and
// telemetry dumps, so `besteffsctl trace` can say which node executed each
// hop. Daemons pass their -advertise address.
func WithNodeAddr(addr string) Option {
	return func(s *Server) {
		s.nodeAddr = addr
	}
}

// WithSlowThreshold logs any request that takes at least d at WARN, with the
// request's completed span tree (per-hop timings from the local span ring)
// attached when the request was traced (0 disables).
func WithSlowThreshold(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.slowThreshold = d
		}
	}
}

// WithMaxBatchSubs lowers the cap on sub-requests per BATCH frame below
// the protocol ceiling (wire.MaxBatchSubs). Oversized batches are answered
// with CodeBadRequest; n outside (0, wire.MaxBatchSubs] keeps the ceiling.
func WithMaxBatchSubs(n int) Option {
	return func(s *Server) {
		if n > 0 && n <= wire.MaxBatchSubs {
			s.maxBatchSubs = n
		}
	}
}

// NetCounters reports the server's connection-level robustness counters
// ("conns_accepted", "conns_rejected_limit", "panics_recovered",
// "read_timeouts", "conns_force_closed", plus the "conns_active" gauge).
// The status endpoint surfaces them as the "net" object; /metrics exports
// the same values under besteffs_conns_* and besteffs_panics_* names.
func (s *Server) NetCounters() map[string]int64 {
	return map[string]int64{
		"conns_accepted":       s.met.connsAccepted.Value(),
		"conns_rejected_limit": s.met.connsRejectedLimit.Value(),
		"conns_force_closed":   s.met.connsForceClosed.Value(),
		"panics_recovered":     s.met.panicsRecovered.Value(),
		"read_timeouts":        s.met.readTimeouts.Value(),
		"conns_active":         int64(s.met.connsActive.Value()),
	}
}

// DensitySamples returns the sampled density trajectory, oldest first
// (empty when sampling is disabled).
func (s *Server) DensitySamples() []telemetry.DensitySample {
	return s.samples.Snapshot()
}

// EngineConfig sizes the server's storage engine: shard count, total byte
// capacity and admission policy.
type EngineConfig = store.EngineConfig

// New builds a node over a sharded storage engine. The zero Shards value
// means one shard.
func New(cfg EngineConfig, opts ...Option) (*Server, error) {
	s := &Server{
		blobs:        blob.NewMemStore(),
		log:          slog.Default(),
		met:          newServerMetrics(),
		maxBatchSubs: wire.MaxBatchSubs,
		spans:        telemetry.NewSpanRing(0),
		events:       telemetry.NewRecorder(0),
	}
	s.scrub = newScrubMetrics(s.met.reg)
	start := time.Now()
	s.clock = func() time.Duration { return time.Since(start) }
	// Options only stage configuration (WALs, clocks), so they run before
	// the engine exists.
	for _, opt := range opts {
		opt(s)
	}
	engine, err := store.NewEngine(cfg, func(i int) []store.Option {
		return []store.Option{store.WithEvictionHook(func(e store.Eviction) {
			// The unit lock is held here, inside a unit call made under the
			// shard's write lock: collect the victim for that mutation's
			// commit and touch nothing else.
			s.shards[i].removed(journal.KindEvict, e.Object.ID, e.Time)
			s.events.Record(telemetry.Event{
				Kind: telemetry.EventEvict, ID: string(e.Object.ID),
			})
		})}
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.engine = engine
	s.shards = make([]*shard, engine.NumShards())
	for i := range s.shards {
		s.shards[i] = &shard{idx: i, unit: engine.Shard(i)}
	}
	if len(s.pendingWALs) > 0 {
		if len(s.pendingWALs) != len(s.shards) {
			return nil, fmt.Errorf("server: %d WALs for %d shards", len(s.pendingWALs), len(s.shards))
		}
		for i, w := range s.pendingWALs {
			s.shards[i].wal = w
		}
	}
	// After options, so the gauges close over the final clock.
	s.registerUnitMetrics()
	return s, nil
}

// removed stages the second half of a removal for commit: id has just left
// the unit -- preempted, expired or quarantined (KindEvict), deleted by its
// owner or superseded by a replica (KindDelete) -- at the given time. The
// caller holds sh.mu, directly or through the unit call the hook runs in.
func (sh *shard) removed(kind journal.Kind, id object.ID, at time.Duration) {
	sh.recs = append(sh.recs, journal.Record{Kind: kind, At: at, ID: id})
}

// Engine exposes the underlying storage engine: the merged node-level view
// plus per-shard access (for stats, gossip advertisements and tests).
func (s *Server) Engine() *store.Engine { return s.engine }

// shardFor returns id's home shard: the only shard that can hold it.
func (s *Server) shardFor(id object.ID) *shard {
	return s.shards[s.engine.Home(id)]
}

// Events exposes the node's flight recorder, so daemons can dump it on
// SIGQUIT, chaos tests on failure, and cluster components can record their
// decisions into the same black box.
func (s *Server) Events() *telemetry.Ring[telemetry.Event] { return s.events }

// Now returns the node's current time.
func (s *Server) Now() time.Duration { return s.clock() }

// Serve accepts connections on l until ctx is cancelled, then closes the
// listener and shuts down: immediately closing every connection by
// default, or -- with WithDrainTimeout -- letting in-flight requests finish
// before force-closing stragglers. It waits for all handlers to finish
// before returning, so callers may safely close journals and stores
// afterwards. A server may run Serve on several listeners concurrently;
// each call tracks only its own connections.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns = make(map[net.Conn]struct{})
	)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			l.Close()
			mu.Lock()
			if s.drainTimeout > 0 {
				// Drain: wake handlers blocked waiting for the next
				// request; handlers mid-request finish writing their
				// response and exit at the next loop check.
				for conn := range conns {
					conn.SetReadDeadline(time.Now())
				}
			} else {
				for conn := range conns {
					conn.Close()
				}
			}
			mu.Unlock()
			if s.drainTimeout > 0 {
				timer := time.NewTimer(s.drainTimeout)
				defer timer.Stop()
				select {
				case <-timer.C:
					mu.Lock()
					for conn := range conns {
						conn.Close()
						s.met.connsForceClosed.Inc()
					}
					mu.Unlock()
				case <-done:
				}
			}
		case <-done:
		}
	}()
	if s.maintenance > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.maintain(ctx)
		}()
	}
	if s.sampleEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.sampleDensity(ctx)
		}()
	}
	if s.checkpointEvery > 0 && s.shards[0].wal != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.checkpointLoop(ctx)
		}()
	}
	if s.scrubEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.scrubLoop(ctx)
		}()
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return nil // graceful shutdown
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		mu.Lock()
		if ctx.Err() != nil {
			// Cancellation raced the accept; drop the connection now
			// rather than leaving it untracked.
			mu.Unlock()
			conn.Close()
			continue
		}
		if s.connLimit > 0 && len(conns) >= s.connLimit {
			mu.Unlock()
			conn.Close()
			s.met.connsRejectedLimit.Inc()
			s.log.Warn("connection rejected at limit",
				"remote", conn.RemoteAddr(), "limit", s.connLimit)
			continue
		}
		conns[conn] = struct{}{}
		mu.Unlock()
		s.met.connsAccepted.Inc()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
			}()
			s.handleConn(ctx, conn)
		}()
	}
}

// maintain sweeps expired residents until ctx is cancelled: one mutation per
// shard, whose victims reach commit through the unit's hook.
func (s *Server) maintain(ctx context.Context) {
	ticker := time.NewTicker(s.maintenance)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			n := 0
			for _, sh := range s.shards {
				sh.mu.Lock()
				n += sh.unit.DropExpired(s.clock())
				s.commit(sh)
				sh.mu.Unlock()
			}
			if n > 0 {
				s.log.Debug("maintenance sweep", "reclaimed", n)
			}
		}
	}
}

// boundaryEventDelta is how far the importance boundary must move between
// density samples before the flight recorder notes it. Small oscillations
// are churn; a material move marks real reclamation pressure changing.
const boundaryEventDelta = 0.05

// sampleDensity records one density trajectory sample per interval (plus
// one at startup, so a freshly started node already has a point to show),
// and flight-records material importance-boundary movement between samples.
func (s *Server) sampleDensity(ctx context.Context) {
	first := s.sampleOnce()
	lastBoundary := first.Boundary
	ticker := time.NewTicker(s.sampleEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			sm := s.sampleOnce()
			if d := sm.Boundary - lastBoundary; d >= boundaryEventDelta || d <= -boundaryEventDelta {
				s.events.Record(telemetry.Event{
					Kind:       telemetry.EventBoundary,
					Importance: sm.Boundary,
					Boundary:   lastBoundary,
				})
				lastBoundary = sm.Boundary
			}
		}
	}
}

// sampleOnce records one node-level sample into the ring and returns it for
// boundary-event tracking.
func (s *Server) sampleOnce() telemetry.DensitySample {
	sm := s.engine.SampleAt(s.clock())
	s.samples.Record(sm)
	return sm
}

// handleConn serves one connection's request loop. A panic while serving
// the connection is recovered and logged: one poisoned request must not
// take down the node, only its own connection.
func (s *Server) handleConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	defer func() {
		if r := recover(); r != nil {
			s.met.panicsRecovered.Inc()
			s.log.Error("panic in connection handler",
				"remote", conn.RemoteAddr(), "panic", r, "stack", string(debug.Stack()))
		}
	}()
	s.met.connsActive.Add(1)
	defer s.met.connsActive.Add(-1)
	// 64 KiB buffers: the read side must hold a full pipelined burst for
	// coalesce to group it (the 4 KiB default caps groups at ~20 small
	// frames), and the write side must hold the burst's responses so they
	// leave in one flush.
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	// Resolve the log level once: building a Debug call's argument list
	// per frame is measurable on the pipelined hot path. Same for the
	// remote address: net.Addr.String formats and allocates per call.
	debug := s.log.Enabled(ctx, slog.LevelDebug)
	remote := conn.RemoteAddr().String()
	// Per-connection coalescing scratch, reused across groups.
	var bodyScratch [][]byte
	for {
		if ctx.Err() != nil {
			return
		}
		if s.reqTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.reqTimeout))
		}
		body, err := wire.ReadFrame(br)
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				s.met.readTimeouts.Inc()
			}
			s.log.Debug("read frame", "remote", conn.RemoteAddr(), "err", err)
			return
		}
		// Frames a pipelining client already streamed behind this one are
		// sitting complete in the read buffer; serve the whole run as one
		// group so its puts share a view snapshot and a WAL barrier.
		bodies := s.coalesce(br, body, bodyScratch)
		bodyScratch = bodies
		start := time.Now()
		outs := s.dispatchGroup(bodies)
		elapsed := time.Since(start)
		if s.reqTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.reqTimeout))
		}
		for _, d := range outs {
			s.met.observe(d.op, d.tr.Trace != "", elapsed)
			if d.sc.Valid() {
				s.spans.Record(telemetry.Span{
					Trace:    d.sc.Trace,
					ID:       d.sc.Span,
					Parent:   d.parent,
					Name:     opLabel(d.op),
					Node:     s.nodeAddr,
					Peer:     remote,
					Start:    start,
					Duration: elapsed,
					Note:     spanNote(d.resp),
				})
				if s.slowThreshold > 0 && elapsed >= s.slowThreshold {
					s.logSlowRequest(d, elapsed, remote)
				}
			} else if s.slowThreshold > 0 && elapsed >= s.slowThreshold {
				s.log.Warn("slow request", "op", d.op, "dur", elapsed,
					"remote", remote)
			}
			if debug {
				if d.tr.Trace != "" {
					s.log.Debug("request served", "op", d.op, "trace", d.tr.Trace,
						"dur", elapsed, "remote", conn.RemoteAddr())
				} else {
					s.log.Debug("request served", "op", d.op,
						"dur", elapsed, "remote", conn.RemoteAddr())
				}
			}
			out, err := wire.Encode(d.resp)
			if err != nil {
				s.log.Error("encode response", "err", err)
				return
			}
			// Echo the trace trailer so intermediaries (and the client's
			// own logs) can correlate the response frame with the request,
			// and the sequence trailer so a pipelining client can
			// demultiplex.
			out = wire.AppendTraceID(out, d.tr.Trace)
			if d.tr.HasSeq {
				out = wire.AppendSeq(out, d.tr.Seq)
			}
			if err := wire.WriteFrame(bw, out); err != nil {
				s.log.Debug("write frame", "remote", conn.RemoteAddr(), "err", err)
				return
			}
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// dispatch decodes and executes one frame that arrived alone.
func (s *Server) dispatch(body []byte) dispatched {
	d, msg := decodeFrame(body)
	if msg != nil {
		d.resp = s.executeTraced(msg, d.sc)
	}
	return d
}

// UnknownOpError reports a well-formed frame whose opcode has no request
// handler: a response opcode sent as a request, or an op from a newer
// protocol revision. The server answers it with CodeBadRequest and counts
// it in besteffs_unknown_ops_total.
type UnknownOpError struct {
	// Op is the offending opcode.
	Op wire.Op
}

// Error implements error.
func (e *UnknownOpError) Error() string {
	return fmt.Sprintf("server: unknown request op %v", e.Op)
}

// execute runs one decoded request without a span context: the entry point
// for untraced internal callers (tests, recovery). Traced dispatch goes
// through executeTraced.
func (s *Server) execute(msg wire.Message) wire.Message {
	return s.executeTraced(msg, telemetry.SpanContext{})
}

// executeTraced runs one decoded request under the frame's span context, so
// handlers that fan out to peers (put replication, corrupt-get recovery)
// propagate the caller's trace. The switch dispatches on the opcode and
// covers every request op in wire's opcode table (TestEveryRequestOpDispatched
// keeps it that way); anything else falls through to a typed UnknownOpError.
func (s *Server) executeTraced(msg wire.Message, sc telemetry.SpanContext) wire.Message {
	now := s.clock()
	switch op := msg.Op(); op {
	case wire.OpPut:
		return s.handlePut(msg.(*wire.Put), now, sc)
	case wire.OpGet:
		return s.handleGet(msg.(*wire.Get), now, sc)
	case wire.OpDelete:
		m := msg.(*wire.Delete)
		sh := s.shardFor(m.ID)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if err := sh.unit.Delete(m.ID); err != nil {
			if errors.Is(err, store.ErrNotFound) {
				return &wire.ErrorMsg{Code: wire.CodeNotFound, Text: string(m.ID)}
			}
			return &wire.ErrorMsg{Code: wire.CodeInternal, Text: err.Error()}
		}
		sh.removed(journal.KindDelete, m.ID, now)
		s.commit(sh)
		return &wire.OK{}
	case wire.OpStat:
		return s.statResult(now)
	case wire.OpProbe:
		m := msg.(*wire.Probe)
		o, err := object.New("probe", m.Size, now, m.Importance)
		if err != nil {
			return &wire.ErrorMsg{Code: wire.CodeBadRequest, Text: err.Error()}
		}
		d := s.engine.ProbeBest(o, now)
		return &wire.ProbeResult{Admissible: d.Admit, Boundary: d.HighestPreempted}
	case wire.OpDensity:
		return &wire.DensityResult{Density: s.engine.DensityAt(now)}
	case wire.OpDensityHistory:
		samples := s.DensitySamples()
		if len(samples) == 0 {
			// Sampling disabled: answer with one on-demand sample so the
			// trajectory command still shows the current point.
			samples = []telemetry.DensitySample{s.engine.SampleAt(now)}
		}
		return &wire.DensityHistoryResult{Samples: samples}
	case wire.OpUpdate:
		return s.handleUpdate(msg.(*wire.Update), now, sc)
	case wire.OpRejuvenate:
		m := msg.(*wire.Rejuvenate)
		sh := s.shardFor(m.ID)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		fresh, err := sh.unit.Rejuvenate(m.ID, m.Importance, now)
		if err != nil {
			if errors.Is(err, store.ErrNotFound) {
				return &wire.ErrorMsg{Code: wire.CodeNotFound, Text: string(m.ID)}
			}
			return &wire.ErrorMsg{Code: wire.CodeBadRequest, Text: err.Error()}
		}
		sh.recs = append(sh.recs, journal.Record{
			Kind: journal.KindRejuvenate, At: now, ID: m.ID, Importance: m.Importance,
		})
		s.commit(sh)
		return &wire.RejuvenateResult{Version: uint32(fresh.Version)}
	case wire.OpBatch:
		return s.handleBatch(msg.(*wire.Batch), sc)
	case wire.OpReplicate:
		_, resp := s.storeReplica(msg.(*wire.Replicate), now)
		return resp
	case wire.OpIndexDelta:
		return s.handleIndexDelta(msg.(*wire.IndexDelta))
	case wire.OpGossip:
		if s.membership == nil {
			return errNotClustered("membership")
		}
		return s.membership.HandleGossip(msg.(*wire.Gossip))
	case wire.OpMembers:
		if s.membership == nil {
			return errNotClustered("membership")
		}
		return &wire.MembersResult{Members: s.membership.Members()}
	case wire.OpRepairStatus:
		if s.repl == nil {
			return errNotClustered("repair")
		}
		return s.repl.Status()
	case wire.OpTraceDump:
		return s.handleTraceDump(msg.(*wire.TraceDump))
	case wire.OpEvents:
		return s.handleEvents(msg.(*wire.Events))
	case wire.OpList:
		residents := s.engine.Residents()
		ids := make([]object.ID, len(residents))
		for i, o := range residents {
			ids[i] = o.ID
		}
		return &wire.ListResult{IDs: ids}
	default:
		s.met.unknownOps.Inc()
		return &wire.ErrorMsg{
			Code: wire.CodeBadRequest,
			Text: (&UnknownOpError{Op: op}).Error(),
		}
	}
}

func (s *Server) handleGet(m *wire.Get, now time.Duration, sc telemetry.SpanContext) wire.Message {
	o, err := s.engine.Get(m.ID)
	if err != nil {
		return &wire.ErrorMsg{Code: wire.CodeNotFound, Text: string(m.ID)}
	}
	payload, err := s.blobs.Get(m.ID)
	if err != nil {
		if errors.Is(err, blob.ErrNotFound) {
			// The object was evicted between the metadata lookup and
			// the payload read; report it as gone.
			return &wire.ErrorMsg{Code: wire.CodeNotFound, Text: string(m.ID)}
		}
		if errors.Is(err, blob.ErrCorrupt) {
			// Never serve corrupt bytes: quarantine the object (evict and
			// count), then ask the cluster: with repair attached the object
			// is fetched back from a replica, restored locally, and served
			// as if nothing happened. Not-found only when no replica is
			// reachable (or the node runs single-copy).
			s.quarantine(m.ID, now, err)
			if obj := s.recoverQuarantined(m.ID, sc); obj != nil {
				return obj
			}
			return &wire.ErrorMsg{Code: wire.CodeNotFound, Text: string(m.ID)}
		}
		return &wire.ErrorMsg{Code: wire.CodeInternal, Text: err.Error()}
	}
	return &wire.ObjectMsg{
		ID:                o.ID,
		Owner:             o.Owner,
		Class:             o.Class,
		Version:           uint32(o.Version),
		Importance:        o.Importance,
		AgeNanos:          int64(o.Age(now)),
		CurrentImportance: o.ImportanceAt(now),
		Payload:           payload,
	}
}
