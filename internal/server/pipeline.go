package server

// The group path. Every request frame is dispatched as a member of a group:
// a pipelining client (internal/client's mux) streams many frames before
// reading any response, so by the time the server's blocking read returns
// one frame, the connection's read buffer often already holds the next
// several complete frames. handleConn drains those -- strictly
// non-blocking, only frames whose every byte is already buffered -- and
// dispatchGroup runs the whole run through executeGroup, the function a
// BATCH frame's subs go through: the run's Put frames are admitted as one
// put group (one store lock, one policy view snapshot, one payload commit,
// one WAL append+sync barrier per shard), everything else executes
// individually in arrival order. Each frame still gets its own response
// with its own trailers, written in arrival order, flushed once. A serial
// client never has a second frame buffered, and a lone frame is a group of
// one: a lone PUT pays the same payload commit and the same WAL barrier
// before it is answered.
//
// Every frame of a group is read into one buffer per connection, and the
// decoded requests' payloads are slices of it (wire.Decode). The buffer is
// reused for the next group once this group's responses are flushed, so
// nothing the server holds past that flush may alias it: the payload stores
// copy what they keep, a replica push encodes its frame before it returns,
// and the session's scratch is emptied by its users (DESIGN.md "Who holds a
// payload's bytes").

import (
	"bufio"
	"encoding/binary"
	"slices"

	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// coalesce drains complete frames already buffered behind the one just
// read, never blocking and never consuming a partial frame. The group is
// capped at the node's batch limit so one greedy connection cannot build an
// unbounded put group. buf is the connection's frame buffer holding the
// first frame's body and nothing else; the drained bodies are appended to
// it, and each returned body is cut from the buffer coalesce returns, with
// no capacity past its own bytes. bodies is the connection's reusable
// backing slice for the result.
func (s *Server) coalesce(br *bufio.Reader, buf []byte, bodies [][]byte) ([]byte, [][]byte) {
	bodies = append(bodies[:0], buf)
	for len(bodies) < s.maxBatchSubs && br.Buffered() >= 4 {
		hdr, err := br.Peek(4)
		if err != nil {
			break
		}
		n := binary.BigEndian.Uint32(hdr)
		// An oversized length is a protocol error; leave it for the main
		// loop's AppendFrame, which rejects it and drops the connection.
		if n > wire.MaxFrameSize || br.Buffered() < 4+int(n) {
			break
		}
		next, err := wire.AppendFrame(buf, br)
		if err != nil {
			break
		}
		bodies, buf = append(bodies, next[len(buf):]), next
	}
	// Appending may have moved the buffer: cut every body from where it
	// ended up.
	at := 0
	for i, b := range bodies {
		bodies[i] = buf[at : at+len(b) : at+len(b)]
		at += len(b)
	}
	return buf, bodies
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
