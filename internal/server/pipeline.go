package server

// The group path. Every request frame is dispatched as a member of a group:
// a pipelining client (internal/client's mux) streams many frames before
// reading any response, so the read that brings the server one frame often
// brings the next several whole frames too. Every frame complete in the
// connection's buffer after a read joins the group -- nothing waits for a
// frame still arriving -- and dispatchGroup runs the whole run through
// executeGroup, the function a BATCH frame's subs go through: the run's Put
// frames are admitted as one put group (one store lock, one policy view
// snapshot, one payload commit, one WAL append+sync barrier per shard),
// everything else executes individually in arrival order. Each frame still
// gets its own response with its own trailers, written in arrival order, in
// one write. A serial client never has a second frame buffered, and a lone
// frame is a group of one: a lone PUT pays the same payload commit and the
// same WAL barrier before it is answered.
//
// A connection reads into one buffer, its frame buffer, and the decoded
// requests' payloads are slices of it (wire.Decode). The buffer is reused
// for the next group once this group's responses are written, so nothing the
// server holds past that write may alias it: the payload stores copy what
// they keep, a replica push encodes its frame before it returns, and the
// session's scratch is emptied by its users (DESIGN.md "Who holds a
// payload's bytes").

import (
	"encoding/binary"
	"fmt"
	"net"
	"slices"

	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// The read-ahead of a connection's frame buffer: how much a read may take in
// past the bytes it holds. It starts at minReadAhead, a serial client's
// frames and then some, and doubles each time a read fills it, up to
// maxReadAhead, the burst a pipelining client's window streams. A frame
// larger than the read-ahead grows the buffer to hold it, but only by
// bodyReadAhead or by as many bytes as have arrived of it, whichever is more
// (wire.AppendFrame's rule): a header alone cannot make the node hold
// wire.MaxFrameSize.
const (
	minReadAhead  = 4 << 10
	maxReadAhead  = 64 << 10
	bodyReadAhead = 1 << 20
)

// maxHeldAnswers is how many bytes of a group's answers a connection holds
// before it writes them: a group's answers leave in one write unless they
// pass it.
const maxHeldAnswers = 64 << 10

// connBuffers is what a connection keeps of its bytes from group to group:
// the frame buffer in, which holds the frames read and not yet served --
// whole ones at its front, then at most one still arriving -- and its
// read-ahead; the response buffer out, which holds a group's answers, each
// behind its header; and the bodies of the group being served, cut from in.
// Each buffer is sized by the traffic it carries (releaseBuffer bounds what
// is kept between groups).
type connBuffers struct {
	in     []byte
	ahead  int
	out    []byte
	bodies [][]byte
}

// readGroup returns the length of the group's frames at the front of b.in,
// whose bodies are then b.bodies, reading from conn until at least one frame
// is whole.
func (s *Server) readGroup(conn net.Conn, b *connBuffers) (int, error) {
	for {
		var n int
		if b.bodies, n = s.coalesce(b.in, b.bodies); len(b.bodies) > 0 {
			return n, nil
		}
		if err := b.fill(conn); err != nil {
			return 0, err
		}
	}
}

// coalesce cuts the bodies of the whole frames at the front of buf, up to
// the node's batch limit so one greedy connection cannot build an unbounded
// put group, and returns them and the bytes they span. It stops at a frame
// not yet whole, and at one whose length is past wire.MaxFrameSize, which
// fill refuses once it is at the front. Each body has no capacity past its
// own bytes. bodies is the connection's reusable backing slice for the
// result.
func (s *Server) coalesce(buf []byte, bodies [][]byte) ([][]byte, int) {
	bodies = bodies[:0]
	at := 0
	for len(bodies) < s.maxBatchSubs && len(buf)-at >= 4 {
		n := binary.BigEndian.Uint32(buf[at:])
		if n > wire.MaxFrameSize || uint64(len(buf)-at-4) < uint64(n) {
			break
		}
		end := at + 4 + int(n)
		bodies, at = append(bodies, buf[at+4:end:end]), end
	}
	return bodies, at
}

// fill reads what has arrived on conn into b.in, past the bytes it holds.
// The room it reads into is the read-ahead, or the rest of the frame at the
// front when that is larger and has arrived far enough (bodyReadAhead); the
// read-ahead doubles when a read fills the room it was given. A buffer too
// small for the room at least doubles, so a large frame arriving a few KiB a
// read is copied a few times, not once a read.
func (b *connBuffers) fill(conn net.Conn) error {
	if b.ahead == 0 {
		b.ahead = minReadAhead
	}
	room := b.ahead
	if len(b.in) >= 4 {
		n := binary.BigEndian.Uint32(b.in)
		if n > wire.MaxFrameSize {
			return fmt.Errorf("%w: %d bytes", wire.ErrFrameTooLarge, n)
		}
		if missing := 4 + int(n) - len(b.in); missing > room {
			room = min(missing, max(bodyReadAhead, len(b.in)))
		}
	}
	if cap(b.in)-len(b.in) < room {
		// Not slices.Grow: under -race it allocates the growth twice.
		b.in = append(make([]byte, 0, max(len(b.in)+room, 2*cap(b.in))), b.in...)
	}
	spare := b.in[len(b.in):cap(b.in)]
	n, err := conn.Read(spare)
	b.in = b.in[:len(b.in)+n]
	if n == len(spare) {
		b.ahead = min(2*b.ahead, maxReadAhead)
	}
	if n > 0 {
		return nil // an error comes back on the next read
	}
	return err
}

// release ends a group's hold on the first n bytes of b.in, the frames it
// served: releaseBuffer takes those bytes, and the frame still arriving
// behind them moves to the front for the next group, into a new buffer when
// the group's frames alone were past maxIdleBuffer.
func (b *connBuffers) release(n int) {
	rest := b.in[n:]
	if releaseBuffer(b.in[:n:n]) == nil {
		b.in = append([]byte(nil), rest...)
		return
	}
	b.in = b.in[:copy(b.in, rest)]
}

// appendAnswer appends d's response to out as a whole frame, header first,
// stamped with the trailers a client correlates it by.
func appendAnswer(out []byte, d dispatched) ([]byte, error) {
	at := len(out)
	out, err := wire.AppendEncode(append(out, 0, 0, 0, 0), d.resp)
	if err != nil {
		return out[:at], err
	}
	// Echo the trace trailer so intermediaries (and the client's own logs)
	// can correlate the response frame with the request, and the sequence
	// trailer so a pipelining client can demultiplex.
	out = wire.AppendTraceID(out, d.tr.Trace)
	if d.tr.HasSeq {
		out = wire.AppendSeq(out, d.tr.Seq)
	}
	n := len(out) - at - 4
	if n > wire.MaxFrameSize {
		return out[:at], fmt.Errorf("%w: %d bytes", wire.ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(out[at:], uint32(n))
	return out, nil
}

// maxIdleBuffer is the largest connection buffer kept from one group to the
// next; a group that grew one past it lets it go, as blob.FileStore does its
// append buffer.
const maxIdleBuffer = 1 << 20

// poisonReleased is set by this package's tests: every released connection
// buffer is then overwritten with 0xDB, so a slice of it held past its
// group reads as poison rather than as the next group's bytes.
var poisonReleased bool

// releaseBuffer ends a group's hold on a connection buffer and returns it
// for the next group: empty, or nil if the group grew it past maxIdleBuffer.
func releaseBuffer(b []byte) []byte {
	if poisonReleased {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xDB
		}
	}
	if cap(b) > maxIdleBuffer {
		return nil
	}
	return b[:0]
}

// dispatched is one frame's outcome: the response to encode plus the opcode
// (OpInvalid for an undecodable frame) and trailers needed for metrics and
// the response's trailer echo, and the frame's resolved span identity
// (sc.Span is the span this frame's handling is recorded under, parent the
// client's own span).
type dispatched struct {
	resp   wire.Message
	op     wire.Op
	tr     wire.Trailers
	sc     telemetry.SpanContext
	parent uint64
}

// decodeFrame decodes one request frame into everything of its outcome but
// the response, and the request to execute for that, kept by the session's
// decoder until the group ends. An undecodable frame is answered on the spot
// -- CodeBadRequest, no request to execute.
func (ss *session) decodeFrame(body []byte) (dispatched, wire.Message) {
	msg, tr, err := ss.dec.DecodeWithTrailers(body)
	if err != nil {
		return dispatched{
			resp: &wire.ErrorMsg{Code: wire.CodeBadRequest, Text: err.Error()},
			op:   wire.OpInvalid,
		}, nil
	}
	d := dispatched{op: msg.Op(), tr: tr}
	d.sc, d.parent = spanContext(tr)
	return d, msg
}

// spanContext resolves the span identity of a traced frame: the span ID the
// client minted for this hop, or a freshly minted one when the client sent
// only a trace trailer (legacy root behavior -- the hop becomes a trace
// root). Untraced frames get the zero context.
func spanContext(tr wire.Trailers) (telemetry.SpanContext, uint64) {
	// Only frames carrying the explicit span trailer join the span ring.
	// The legacy trace-ID-only trailer (every client stamps one) keeps its
	// original cost -- log correlation, no per-request span allocation --
	// so tracing stays opt-in per request and the untraced hot path pays
	// nothing. Everything cluster-internal (replication, repair, gossip-era
	// ctl commands) mints span contexts, so cross-node trees stay complete.
	if tr.Trace == "" || !tr.HasSpan {
		return telemetry.SpanContext{}, 0
	}
	return telemetry.SpanContext{Trace: string(tr.Trace), Span: tr.Span}, tr.Parent
}

// dispatchGroup executes a run of frames, of one or more, as one group (see
// executeGroup for the ordering contract: puts first, everything else after
// in arrival order). Undecodable frames answer CodeBadRequest individually
// without disturbing their neighbours. ss is the connection's session, whose
// outcomes from its last group are written over and returned.
func (s *Server) dispatchGroup(ss *session, bodies [][]byte) []dispatched {
	outs := slices.Grow(ss.outs[:0], len(bodies))[:len(bodies)]
	ss.outs = outs
	defer ss.dec.Reset()
	for i, body := range bodies {
		var msg wire.Message
		outs[i], msg = ss.decodeFrame(body)
		ss.msgs = append(ss.msgs, msg)
		ss.scs = append(ss.scs, outs[i].sc)
		ss.results = append(ss.results, nil)
	}
	s.executeGroup(ss, ss.msgs, ss.scs, ss.results)
	for i, msg := range ss.msgs {
		if msg != nil {
			outs[i].resp = ss.results[i]
		}
	}
	ss.msgs, ss.scs, ss.results = drop(ss.msgs), drop(ss.scs), drop(ss.results)
	return outs
}
