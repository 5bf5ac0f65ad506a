// Package client is the Go client for Besteffs storage nodes: a
// single-node pipelined connection speaking the wire protocol (this file:
// the connection and one method per operation; mux.go: the pipelining),
// plus ClusterClient (cluster.go), which runs the paper's Section 5.3
// placement -- internal/placement's Walk -- over real sockets.
//
// Every operation takes a context first (PutCtx, GetCtx, ...); it cancels
// waiting for that request without disturbing the others sharing the
// connection. Requests from concurrent goroutines are pipelined over the
// single connection, and PutBatch ships many objects in one BATCH frame,
// admitted server-side as one group against one policy snapshot.
package client

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/metrics"
	"besteffs/internal/object"
	"besteffs/internal/secure"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// Client errors.
var (
	// ErrNotFound reports a missing object.
	ErrNotFound = errors.New("client: object not found")
	// ErrDuplicate reports a Put of an existing ID.
	ErrDuplicate = errors.New("client: duplicate object ID")
	// ErrUnexpected reports a protocol violation by the server.
	ErrUnexpected = errors.New("client: unexpected response")
	// ErrClusterFull reports that no sampled node admitted the object.
	ErrClusterFull = errors.New("client: cluster full for object")
	// ErrNoHealthyNodes reports that every probed node was dead, ejected
	// or unreachable -- nothing even answered.
	ErrNoHealthyNodes = errors.New("client: no healthy nodes reachable")
	// ErrNotConnected reports a request on a client whose connection is
	// down and not (or no longer) redialable.
	ErrNotConnected = errors.New("client: not connected")
)

// Config tunes a client's per-request robustness behavior.
type Config struct {
	// RequestTimeout bounds each request's round trip (0 disables the
	// bound). A timed-out request poisons its connection: responses may
	// still be on the wire, so the stream cannot be trusted afterwards.
	RequestTimeout time.Duration
	// MaxRetries is how many times a transport-failed request is retried
	// over a fresh connection (0 fails fast). Retried requests are
	// at-least-once: a Put whose response was lost may surface as
	// ErrDuplicate on the retry.
	MaxRetries int
	// BackoffBase and BackoffMax shape the exponential backoff with
	// jitter slept before each retry.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Window caps the requests in flight on the connection (0 means
	// DefaultWindow). Senders beyond the cap block until a slot frees.
	Window int
	// MaxBatchSubs caps the sub-requests PutBatch packs into one BATCH
	// frame (0 means DefaultBatchChunk); larger batches are split into
	// consecutive frames. Keep it at or below the node's -max-batch.
	MaxBatchSubs int
	// TLS, when set, wraps every dial (the first, and every redial) in a
	// TLS session with an eager handshake, so an unauthorized certificate
	// fails the dial instead of the first request.
	// Build it with secure.ClientConfig; nil dials cleartext.
	TLS *tls.Config
}

// DefaultBatchChunk is the default PutBatch chunk size, comfortably under
// wire.MaxBatchSubs and any reasonable node-side limit.
const DefaultBatchChunk = 128

// DefaultConfig is the robustness configuration Connect uses: bounded
// requests, a couple of reconnect attempts, sub-second backoff.
func DefaultConfig() Config {
	return Config{
		RequestTimeout: 10 * time.Second,
		MaxRetries:     2,
		BackoffBase:    50 * time.Millisecond,
		BackoffMax:     2 * time.Second,
		Window:         DefaultWindow,
		MaxBatchSubs:   DefaultBatchChunk,
	}
}

// backoff returns the pause before retry attempt (0-based), growing
// exponentially with full jitter in [d/2, d] so simultaneous clients do not
// stampede a recovering node.
func backoff(cfg Config, attempt int) time.Duration {
	if cfg.BackoffBase <= 0 {
		return 0
	}
	d := cfg.BackoffBase << uint(attempt)
	if cfg.BackoffMax > 0 && d > cfg.BackoffMax {
		d = cfg.BackoffMax
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// Client is a connection to one storage node. Methods are safe for
// concurrent use; concurrent requests are pipelined over the single
// connection through a bounded in-flight window rather than serialized.
type Client struct {
	mu sync.Mutex
	mx *mux // the connection; nil or broken until connect dials it

	// addr is the node to dial; empty for clients wrapping a raw conn,
	// which cannot reconnect.
	addr        string
	dialTimeout time.Duration
	cfg         Config
	closed      bool // Close was called; no redials

	met *clientMetrics
	log *slog.Logger
}

// newClient returns a client for the node at addr that has not dialed yet.
func newClient(addr string, timeout time.Duration, cfg Config) *Client {
	return &Client{
		addr:        addr,
		dialTimeout: timeout,
		cfg:         cfg,
		met:         newClientMetrics(),
		log:         slog.Default(),
	}
}

// dial connects to a node with explicit robustness settings; Connect is its
// exported form.
func dial(addr string, timeout time.Duration, cfg Config) (*Client, error) {
	c := newClient(addr, timeout, cfg)
	if err := c.open(); err != nil {
		return nil, err
	}
	return c, nil
}

// dialNode is the one TCP dial in the client: cleartext, or TLS through
// secure.Dialer, whose eager handshake under the dial timeout turns
// certificate refusals (and cleartext/TLS mismatches) into dial errors, not
// request hangs.
func dialNode(addr string, timeout time.Duration, tlsCfg *tls.Config) (net.Conn, error) {
	if tlsCfg != nil {
		return secure.Dialer(tlsCfg, timeout)(addr)
	}
	return net.DialTimeout("tcp", addr, timeout)
}

// open dials the node and starts a mux over the new connection: the first
// dial and every redial. The caller holds c.mu or, while building c, is its
// only user.
func (c *Client) open() error {
	conn, err := dialNode(c.addr, c.dialTimeout, c.cfg.TLS)
	if err != nil {
		return fmt.Errorf("client: dial %s: %w", c.addr, err)
	}
	c.mx = newMux(conn, c.cfg.Window, c.cfg.RequestTimeout)
	return nil
}

// NewClient wraps an established connection (tests use net.Pipe). Wrapped
// connections have no address, so they get no deadlines and cannot
// reconnect once the connection fails.
func NewClient(conn net.Conn) *Client {
	c := newClient("", 0, Config{})
	c.mx = newMux(conn, 0, 0)
	return c
}

// Counters reports the client's robustness counters ("retries",
// "reconnects"). Cluster clients share one set across all nodes.
func (c *Client) Counters() map[string]int64 { return c.met.Snapshot() }

// Metrics returns the client's registry: robustness counters under
// besteffs_client_*_total plus per-operation latency histograms
// (besteffs_client_op_latency_seconds{op=...}).
func (c *Client) Metrics() *metrics.Registry { return c.met.reg }

// SetLogger replaces the client's logger (default slog.Default). Request
// IDs and latencies are logged at Debug. Call before issuing requests.
func (c *Client) SetLogger(l *slog.Logger) {
	if l != nil {
		c.log = l
	}
}

// setMetrics redirects the client's instruments to a shared bundle.
func (c *Client) setMetrics(m *clientMetrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.met = m
}

// Close closes the connection, failing any requests still in flight. It
// never fails, whether or not the connection was already dropped.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.mx != nil {
		c.mx.Close()
		c.mx = nil
	}
	return nil
}

// connect returns the live mux, redialing first when the connection is
// down -- never dialed, dropped by the node, or poisoned by a failed
// request -- so a request is never sent on a connection known dead.
func (c *Client) connect() (*mux, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("%w: client closed", ErrNotConnected)
	}
	if c.mx != nil && !c.mx.isBroken() {
		return c.mx, nil
	}
	if c.addr == "" {
		return nil, ErrNotConnected
	}
	if err := c.open(); err != nil {
		return nil, err
	}
	c.met.Inc("reconnects")
	return c.mx, nil
}

// sendCtx runs the encoded frame through the retry loop: one attempt, then
// up to MaxRetries more after a backoff (clients wrapping a raw conn have
// none), each on a connection connect has checked or redialed. Context
// cancellation stops the loop immediately.
func (c *Client) sendCtx(ctx context.Context, body []byte) (wire.Message, error) {
	for attempt := 0; ; attempt++ {
		m, err := c.connect()
		if err == nil {
			var resp wire.Message
			if resp, err = m.do(ctx, body); err == nil {
				return resp, nil
			}
		}
		if attempt >= c.cfg.MaxRetries {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		c.met.Inc("retries")
		select {
		case <-time.After(backoff(c.cfg, attempt)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// roundTripCtx sends one request and reads one response, reconnecting with
// backoff on transport errors when the client knows its node's address.
// Every request carries a trace ID in the frame trailer; the observed
// latency (including any retries) lands in the per-op histogram and a Debug
// log line carrying the same ID the server logs. A caller that attached a
// telemetry span context to ctx joins its trace instead of minting a fresh
// one: the hop gets a child span ID stamped alongside the trace, which the
// receiving server records -- this is how replication pushes, repair pulls
// and besteffsctl traces stay one distributed trace across nodes.
func (c *Client) roundTripCtx(ctx context.Context, req wire.Message) (wire.Message, error) {
	body, err := wire.Encode(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	var trace wire.TraceID
	if sc, ok := telemetry.FromContext(ctx); ok {
		trace = wire.TraceID(sc.Trace)
		body = wire.AppendTraceID(body, trace)
		body = wire.AppendSpan(body, telemetry.NewSpanID(), sc.Span)
	} else {
		trace = newTraceID()
		body = wire.AppendTraceID(body, trace)
	}
	start := time.Now()
	resp, err := c.sendCtx(ctx, body)
	elapsed := time.Since(start)
	c.met.observe(req.Op(), elapsed)
	// Guard the log call: building its argument list is measurable on the
	// pipelined hot path, and debug logging is usually off.
	if c.log.Enabled(ctx, slog.LevelDebug) {
		if err != nil {
			c.log.Debug("request failed", "op", req.Op(), "trace", trace,
				"dur", elapsed, "addr", c.addr, "err", err)
		} else {
			c.log.Debug("request done", "op", req.Op(), "trace", trace,
				"dur", elapsed, "addr", c.addr)
		}
	}
	return resp, err
}

// translateError maps wire errors to package errors.
func translateError(e *wire.ErrorMsg) error {
	switch e.Code {
	case wire.CodeNotFound:
		return fmt.Errorf("%w: %s", ErrNotFound, e.Text)
	case wire.CodeDuplicate:
		return fmt.Errorf("%w: %s", ErrDuplicate, e.Text)
	default:
		return e
	}
}

// replyAs reads a response as the reply type R an operation expects: an
// ERROR frame becomes its package error, any other type is a protocol
// violation.
func replyAs[R wire.Message](resp wire.Message) (R, error) {
	var zero R
	if r, ok := resp.(R); ok {
		return r, nil
	}
	if em, ok := resp.(*wire.ErrorMsg); ok {
		return zero, translateError(em)
	}
	return zero, fmt.Errorf("%w: %v", ErrUnexpected, resp.Op())
}

// call is one operation's round trip: send req, read the reply as R. Every
// per-operation method below is built on it.
func call[R wire.Message](ctx context.Context, c *Client, req wire.Message) (R, error) {
	resp, err := c.roundTripCtx(ctx, req)
	if err != nil {
		var zero R
		return zero, err
	}
	return replyAs[R](resp)
}

// PutRequest describes one object to store: the PUT frame itself (a zero
// Version means 1).
type PutRequest = wire.Put

// PutResult reports the admission outcome: the PUT_RESULT frame itself --
// the verdict, the highest importance preempted (admitted) or the
// importance that blocked admission (rejected), the rejection's
// policy.Reason, and the objects reclaimed to make room.
type PutResult = wire.PutResult

// putResult unwraps a PUT_RESULT reply (or the error in its place).
func putResult(r *wire.PutResult, err error) (PutResult, error) {
	if err != nil {
		return PutResult{}, err
	}
	return *r, nil
}

// PutCtx stores an object on the node. A policy rejection is not an error;
// it is reported through the result.
func (c *Client) PutCtx(ctx context.Context, req PutRequest) (PutResult, error) {
	return putResult(call[*wire.PutResult](ctx, c, &req))
}

// UpdateCtx supersedes the resident version of req.ID with new bytes and a
// new annotation (Besteffs versioned writes). The old version's space is
// reclaimable by right; a rejection leaves it untouched. ErrNotFound means
// nothing is resident under the ID (use PutCtx instead).
func (c *Client) UpdateCtx(ctx context.Context, req PutRequest) (PutResult, error) {
	return putResult(call[*wire.PutResult](ctx, c, &wire.Update{
		ID:         req.ID,
		Owner:      req.Owner,
		Class:      req.Class,
		Importance: req.Importance,
		Payload:    req.Payload,
	}))
}

// ReplicateCtx pushes one replica to the node; the node stores it like an
// ordinary put (journaled, policy-admitted) unless it already holds a copy
// that supersedes it.
func (c *Client) ReplicateCtx(ctx context.Context, rep *wire.Replicate) (PutResult, error) {
	return putResult(call[*wire.PutResult](ctx, c, rep))
}

// BatchOutcome is one sub-request's result from PutBatch: its admission
// verdict, or the error that failed it individually. A transport failure
// mid-batch fails every sub-request that was not answered.
type BatchOutcome struct {
	Result PutResult
	Err    error
}

// PutBatch stores many objects in BATCH frames: each chunk of up to
// Config.MaxBatchSubs requests rides one frame, is admitted server-side as
// ONE group against a single policy snapshot (batch members never preempt
// each other), and is journaled through one WAL sync barrier. Outcomes are
// positional. The returned error is the first transport failure; sub-
// requests already answered keep their real outcomes, the rest carry the
// error.
func (c *Client) PutBatch(ctx context.Context, reqs []PutRequest) ([]BatchOutcome, error) {
	out := make([]BatchOutcome, len(reqs))
	chunk := c.cfg.MaxBatchSubs
	if chunk <= 0 {
		chunk = DefaultBatchChunk
	}
	if chunk > wire.MaxBatchSubs {
		chunk = wire.MaxBatchSubs
	}
	for start := 0; start < len(reqs); start += chunk {
		end := start + chunk
		if end > len(reqs) {
			end = len(reqs)
		}
		subs := make([]wire.Message, 0, end-start)
		for i := start; i < end; i++ {
			subs = append(subs, &reqs[i])
		}
		br, err := call[*wire.BatchResult](ctx, c, &wire.Batch{Subs: subs})
		if err == nil && len(br.Results) != end-start {
			err = fmt.Errorf("%w: %d results for %d sub-requests",
				ErrUnexpected, len(br.Results), end-start)
		}
		if err != nil {
			for i := start; i < len(reqs); i++ {
				out[i].Err = err
			}
			return out, err
		}
		for i, sub := range br.Results {
			out[start+i].Result, out[start+i].Err = putResult(replyAs[*wire.PutResult](sub))
		}
	}
	return out, nil
}

// GetCtx retrieves an object: its annotation, its age and current
// importance on the node, and its payload.
func (c *Client) GetCtx(ctx context.Context, id object.ID) (*wire.ObjectMsg, error) {
	return call[*wire.ObjectMsg](ctx, c, &wire.Get{ID: id})
}

// DeleteCtx removes an object.
func (c *Client) DeleteCtx(ctx context.Context, id object.ID) error {
	_, err := call[*wire.OK](ctx, c, &wire.Delete{ID: id})
	return err
}

// StatCtx fetches the node's capacity, usage and density, merged and per
// shard (a single entry on unsharded nodes).
func (c *Client) StatCtx(ctx context.Context) (*wire.StatResult, error) {
	return call[*wire.StatResult](ctx, c, &wire.Stat{})
}

// ProbeCtx asks the node for the admission boundary of a hypothetical
// object.
func (c *Client) ProbeCtx(ctx context.Context, size int64, imp importance.Function) (admissible bool, boundary float64, err error) {
	r, err := call[*wire.ProbeResult](ctx, c, &wire.Probe{Size: size, Importance: imp})
	if err != nil {
		return false, 0, err
	}
	return r.Admissible, r.Boundary, nil
}

// RejuvenateCtx replaces a resident object's importance annotation with a
// fresh function aging from the node's current time, returning the
// object's new version. This is the paper's "active intervention by the
// user" escape from monotone lifetimes: lower the importance after a
// successful backup, or raise it on renewed interest.
func (c *Client) RejuvenateCtx(ctx context.Context, id object.ID, imp importance.Function) (version uint32, err error) {
	r, err := call[*wire.RejuvenateResult](ctx, c, &wire.Rejuvenate{ID: id, Importance: imp})
	if err != nil {
		return 0, err
	}
	return r.Version, nil
}

// DensityCtx fetches the node's storage importance density.
func (c *Client) DensityCtx(ctx context.Context) (float64, error) {
	r, err := call[*wire.DensityResult](ctx, c, &wire.Density{})
	if err != nil {
		return 0, err
	}
	return r.Density, nil
}

// DensityHistoryCtx fetches the node's sampled density trajectory, oldest
// first. A node running without density sampling answers with a single
// on-the-spot sample.
func (c *Client) DensityHistoryCtx(ctx context.Context) ([]telemetry.DensitySample, error) {
	r, err := call[*wire.DensityHistoryResult](ctx, c, &wire.DensityHistory{})
	if err != nil {
		return nil, err
	}
	return r.Samples, nil
}

// ListCtx fetches the node's resident object IDs.
func (c *Client) ListCtx(ctx context.Context) ([]object.ID, error) {
	r, err := call[*wire.ListResult](ctx, c, &wire.List{})
	if err != nil {
		return nil, err
	}
	return r.IDs, nil
}

// IndexDeltaCtx sends an incremental index update (or a full snapshot when
// d.Full) and returns the node's comparison plus its acknowledgment of
// d.Seq. A Resync answer means the node's mirror of this side's index is
// gone or stale; resend with Full set.
func (c *Client) IndexDeltaCtx(ctx context.Context, d *wire.IndexDelta) (*wire.IndexDeltaResult, error) {
	return call[*wire.IndexDeltaResult](ctx, c, d)
}

// MembersCtx fetches the node's membership table: every node it knows,
// with advertised boundary, free bytes, density and liveness.
func (c *Client) MembersCtx(ctx context.Context) ([]wire.MemberInfo, error) {
	r, err := call[*wire.MembersResult](ctx, c, &wire.Members{})
	if err != nil {
		return nil, err
	}
	return r.Members, nil
}

// RepairStatusCtx fetches the node's replication/repair counters.
func (c *Client) RepairStatusCtx(ctx context.Context) (*wire.RepairStatusResult, error) {
	return call[*wire.RepairStatusResult](ctx, c, &wire.RepairStatus{})
}

// TraceDumpCtx fetches the spans the node recorded for one trace ID, or
// its whole span ring when trace is empty. Each node only holds its own
// hops; callers fan out across members and telemetry.Assemble the union.
func (c *Client) TraceDumpCtx(ctx context.Context, trace string) (*wire.TraceDumpResult, error) {
	return call[*wire.TraceDumpResult](ctx, c, &wire.TraceDump{Trace: trace})
}

// EventsCtx fetches the tail of the node's flight recorder (limit 0 = the
// whole ring).
func (c *Client) EventsCtx(ctx context.Context, limit uint32) (*wire.EventsResult, error) {
	return call[*wire.EventsResult](ctx, c, &wire.Events{Limit: limit})
}
