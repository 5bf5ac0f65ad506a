package client

// Connection multiplexer: the pipelined transport under every Client. One
// writer goroutine streams request frames onto the socket, one reader
// goroutine demultiplexes response frames back to their callers, and a
// bounded window caps the requests in flight. Callers block only on their
// own response, so N concurrent requests cost one round trip of latency,
// not N.
//
// Matching: the writer stamps every frame with a sequence-number trailer
// (wire.AppendSeq) and the server echoes it back. Responses carrying no
// sequence trailer -- legacy servers, or error responses to frames the
// server could not decode -- are matched to the oldest unanswered request,
// which is exact because the writer serializes frames in FIFO order and
// the server answers each connection in order.
//
// Failure: any transport error, decode error or request timeout poisons
// the WHOLE mux. After a failed round trip the stream position is unknown,
// so the connection cannot be reused safely; every in-flight request is
// failed, the connection is closed, and the owning Client redials.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"besteffs/internal/wire"
)

// DefaultWindow is the default cap on requests in flight per connection.
const DefaultWindow = 64

// errAbandoned resolves a pending whose caller cancelled before the frame
// was written; nobody reads it (the caller already returned ctx.Err()).
var errAbandoned = errors.New("client: request abandoned")

// muxResult is one demultiplexed response.
type muxResult struct {
	msg wire.Message
	err error
}

// pending is one in-flight request. ch is buffered so resolving never
// blocks, even when the caller has already given up.
type pending struct {
	seq       uint64
	body      []byte
	sentAt    time.Time // when the writer registered it (watchdog input)
	ch        chan muxResult
	abandoned atomic.Bool // caller cancelled; skip if still queued
	resolved  atomic.Bool // guards the single resolution
}

// mux pipelines requests over one connection.
type mux struct {
	conn net.Conn
	bw   *bufio.Writer

	writeCh chan *pending // queued toward the writer; cap = window
	window  chan struct{} // in-flight semaphore; cap = window

	mu       sync.Mutex
	nextSeq  uint64
	inflight map[uint64]*pending // written, awaiting response, by seq
	fifo     []*pending          // same set in write order (legacy matching)
	err      error               // first failure; set before broken closes

	broken chan struct{} // closed on first failure
	once   sync.Once
}

// newMux starts a multiplexer over conn with the given in-flight window
// (DefaultWindow when w <= 0). A positive timeout bounds how long the
// OLDEST in-flight request may wait: one watchdog goroutine enforces it
// for the whole mux, instead of a runtime timer per request -- a timeout
// poisons the whole mux anyway, so per-request precision buys nothing,
// and on the pipelined hot path the per-request timer allocation and
// timer-heap traffic were measurable.
func newMux(conn net.Conn, w int, timeout time.Duration) *mux {
	if w <= 0 {
		w = DefaultWindow
	}
	m := &mux{
		conn: conn,
		// A 64 KiB writer holds a full window's burst of frames; the 4 KiB
		// default would flush mid-burst and shrink the server's coalesced
		// groups.
		bw:       bufio.NewWriterSize(conn, 64<<10),
		writeCh:  make(chan *pending, w),
		window:   make(chan struct{}, w),
		inflight: make(map[uint64]*pending),
		broken:   make(chan struct{}),
	}
	go m.writeLoop()
	go m.readLoop()
	if timeout > 0 {
		go m.watchdog(timeout)
	}
	return m
}

// watchdog poisons the mux when the oldest unanswered request has waited
// longer than timeout. It polls at timeout/4, so a request times out within
// [timeout, 1.25*timeout) of being written.
func (m *mux) watchdog(timeout time.Duration) {
	tick := timeout / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.mu.Lock()
			stale := len(m.fifo) > 0 && time.Since(m.fifo[0].sentAt) > timeout
			m.mu.Unlock()
			if stale {
				m.fail(fmt.Errorf("client: request timed out after %v", timeout))
				return
			}
		case <-m.broken:
			return
		}
	}
}

// do runs one round trip: acquire an in-flight slot, hand the frame to the
// writer, wait for the reader to deliver the response. Context cancellation
// abandons the slot (released when the response arrives or the mux dies)
// without disturbing the stream; request timeouts are enforced mux-wide by
// the watchdog, which poisons the whole mux, because a response may still
// be on the wire for a caller that no longer waits.
func (m *mux) do(ctx context.Context, body []byte) (wire.Message, error) {
	select {
	case m.window <- struct{}{}:
	case <-m.broken:
		return nil, m.failure()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	p := &pending{body: body, ch: make(chan muxResult, 1)}
	select {
	case m.writeCh <- p:
	case <-m.broken:
		<-m.window // p was never queued; release its slot directly
		return nil, m.failure()
	case <-ctx.Done():
		<-m.window
		return nil, ctx.Err()
	}
	select {
	case r := <-p.ch:
		return r.msg, r.err
	case <-ctx.Done():
		p.abandoned.Store(true)
		return nil, ctx.Err()
	case <-m.broken:
		select {
		case r := <-p.ch:
			return r.msg, r.err
		default:
		}
		return nil, m.failure()
	}
}

// writeLoop streams queued frames onto the socket, stamping each with its
// sequence trailer. Registration (seq, inflight, fifo) happens under the
// mutex BEFORE the frame is written, so the reader can never see a response
// to an unregistered request. The buffered writer is flushed only when the
// queue drains, coalescing a burst of pipelined requests into few syscalls.
func (m *mux) writeLoop() {
	for {
		select {
		case p := <-m.writeCh:
			if !m.writeOne(p) {
				return
			}
		case <-m.broken:
			// Fail whatever is still queued so no caller waits forever.
			for {
				select {
				case p := <-m.writeCh:
					m.resolve(p, muxResult{err: m.failure()})
				default:
					return
				}
			}
		}
	}
}

// writeOne registers and writes one queued frame: the per-frame segment of
// the pipelined send path. Registration (seq, inflight, fifo) happens under
// the mutex BEFORE the frame is written, so the reader can never see a
// response to an unregistered request. Returns false when the mux failed
// and the loop should exit.
func (m *mux) writeOne(p *pending) bool {
	if p.abandoned.Load() {
		m.resolve(p, muxResult{err: errAbandoned})
		return true
	}
	m.mu.Lock()
	if m.err != nil {
		// Failed while p sat in the queue; fail collected the
		// registered set already, so resolve p directly.
		err := m.err
		m.mu.Unlock()
		m.resolve(p, muxResult{err: err})
		return true
	}
	m.nextSeq++
	p.seq = m.nextSeq
	p.sentAt = time.Now()
	m.inflight[p.seq] = p
	m.fifo = append(m.fifo, p)
	m.mu.Unlock()
	frame := wire.AppendSeq(p.body, p.seq)
	if err := wire.WriteFrame(m.bw, frame); err != nil {
		m.fail(fmt.Errorf("client: %w", err))
		return false
	}
	if len(m.writeCh) == 0 && m.inflightLen() > 1 {
		// Micro-batch: other callers are already blocked on
		// responses, so latency is not at stake -- yield a few
		// times so producers woken by a response burst can append
		// to this one before it is flushed. Without this the
		// pipeline degenerates into per-frame ping-pong: one
		// frame out, one response back, one producer woken.
		for i := 0; i < 32 && len(m.writeCh) == 0; i++ {
			runtime.Gosched()
		}
	}
	if len(m.writeCh) == 0 {
		if err := m.bw.Flush(); err != nil {
			m.fail(fmt.Errorf("client: flush: %w", err))
			return false
		}
	}
	return true
}

// readLoop reads response frames and routes each to its pending request.
func (m *mux) readLoop() {
	br := bufio.NewReaderSize(m.conn, 64<<10)
	for {
		body, err := wire.ReadFrame(br)
		if err != nil {
			m.fail(fmt.Errorf("client: %w", err))
			return
		}
		msg, tr, err := wire.DecodeWithTrailers(body)
		if err != nil {
			m.fail(fmt.Errorf("client: %w", err))
			return
		}
		p := m.take(tr)
		if p == nil {
			m.fail(errors.New("client: unsolicited response"))
			return
		}
		m.resolve(p, muxResult{msg: msg})
	}
}

// take claims the pending request a response answers: by echoed sequence
// number when present, else the oldest unanswered request.
func (m *mux) take(tr wire.Trailers) *pending {
	m.mu.Lock()
	defer m.mu.Unlock()
	if tr.HasSeq {
		p := m.inflight[tr.Seq]
		if p == nil {
			return nil
		}
		delete(m.inflight, tr.Seq)
		for i, q := range m.fifo {
			if q == p {
				m.fifo = append(m.fifo[:i], m.fifo[i+1:]...)
				break
			}
		}
		return p
	}
	if len(m.fifo) == 0 {
		return nil
	}
	p := m.fifo[0]
	m.fifo = m.fifo[1:]
	delete(m.inflight, p.seq)
	return p
}

// resolve delivers a result to p exactly once and releases its in-flight
// slot. The buffered channel (cap 1, one resolver) makes delivery
// non-blocking even when the caller abandoned the request, and the window
// receive releases a slot this request holds, so neither can block.
func (m *mux) resolve(p *pending, r muxResult) {
	if p.resolved.Swap(true) {
		return
	}
	p.ch <- r
	<-m.window
}

// fail poisons the mux: records the first error, wakes everyone via the
// broken channel, closes the connection (unblocking both loops) and fails
// every request that was written but not answered. Idempotent.
func (m *mux) fail(err error) {
	m.once.Do(func() {
		m.mu.Lock()
		m.err = err
		stranded := make([]*pending, 0, len(m.inflight))
		for seq, p := range m.inflight {
			stranded = append(stranded, p)
			delete(m.inflight, seq)
		}
		m.fifo = m.fifo[:0]
		m.mu.Unlock()
		close(m.broken)
		m.conn.Close()
		for _, p := range stranded {
			m.resolve(p, muxResult{err: err})
		}
	})
}

// failure returns the error that poisoned the mux. Valid once broken is
// observed closed (fail sets err before closing it).
func (m *mux) failure() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	return ErrNotConnected
}

// inflightLen reports how many written requests await responses.
func (m *mux) inflightLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.fifo)
}

// isBroken reports whether the mux has been poisoned.
func (m *mux) isBroken() bool {
	select {
	case <-m.broken:
		return true
	default:
		return false
	}
}

// Close shuts the mux down, failing any requests still in flight.
func (m *mux) Close() {
	m.fail(fmt.Errorf("%w: connection closed", ErrNotConnected))
}
