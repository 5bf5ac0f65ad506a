package wire

// Optional trailers ride the existing frame format after a message's last
// field. Three are defined:
//
//	trace:    [1]byte magic (0xA7)  [1]byte id length  id bytes
//	sequence: [1]byte magic (0xA8)  [8]byte big-endian sequence ID
//	span:     [1]byte magic (0xA9)  [8]byte span ID  [8]byte parent span ID
//
// A decoder stops at a message's last field and never looks at what follows
// the top-level message (mutation tests rely on junk suffixes being
// ignored), so a trailered frame decodes identically on an older peer: new
// client -> old server and old client -> new server both keep working, which
// is the backward-compatibility contract here. Trailing bytes are refused
// only where a length says exactly how far a nested encoding runs: inside a
// BATCH sub and inside an importance field. The trace
// trailer correlates one request across client logs, server logs and both
// sides' latency histograms; the sequence trailer lets a pipelining client
// demultiplex many in-flight responses on one connection (the server echoes
// it verbatim on the response frame); the span trailer promotes the trace
// into a distributed span tree -- the sender mints the hop's span ID, names
// its own current span as the parent, and the receiver records its handling
// of the frame under the received IDs, so `besteffsctl trace` can stitch the
// cross-node tree back together.
//
// Trailers may appear in any order, but the walk must consume the remainder
// of the body exactly: any unrecognized or malformed byte discards ALL
// trailers, never just the broken one. Half-parsed trailers would make the
// "junk suffix" compatibility story ambiguous.

import (
	"encoding/binary"

	"besteffs/internal/codec"
)

// traceMagic introduces the optional trace trailer. Chosen outside the
// opcode ranges so a trailer misread as a message start fails cleanly.
const traceMagic = 0xA7

// seqMagic introduces the optional sequence trailer.
const seqMagic = 0xA8

// spanMagic introduces the optional span trailer.
const spanMagic = 0xA9

// MaxTraceIDLen bounds a trace ID; longer IDs are silently not attached.
const MaxTraceIDLen = 64

// TraceID identifies one request across client and server logs and
// histograms. Empty means untraced.
type TraceID string

// Trailers carries every optional trailer found after a message body.
type Trailers struct {
	// Trace is the trace ID; empty means untraced.
	Trace TraceID
	// Seq is the pipelining sequence ID, valid only when HasSeq is set
	// (zero is a legal sequence value).
	Seq uint64
	// HasSeq reports whether a sequence trailer was present.
	HasSeq bool
	// Span is the span ID the sender minted for this hop, valid only when
	// HasSpan is set.
	Span uint64
	// Parent is the sender's own span, which Span descends from (0 when the
	// sender is the trace root).
	Parent uint64
	// HasSpan reports whether a span trailer was present.
	HasSpan bool
}

// AppendTraceID appends the optional trace trailer to an encoded frame
// body. Empty or oversized IDs leave the body unchanged.
func AppendTraceID(body []byte, id TraceID) []byte {
	if id == "" || len(id) > MaxTraceIDLen {
		return body
	}
	body = append(body, traceMagic, byte(len(id)))
	return append(body, id...)
}

// AppendSeq appends the optional sequence trailer to an encoded frame body.
// The trailer lands in the frame buffer's spare capacity when the encoder
// reserved it.
func AppendSeq(body []byte, seq uint64) []byte {
	body = append(body, seqMagic)
	return binary.BigEndian.AppendUint64(body, seq)
}

// AppendSpan appends the optional span trailer to an encoded frame body: the
// span ID minted for this hop and the sender's own span it descends from. A
// zero span ID leaves the body unchanged (0 means "no span").
func AppendSpan(body []byte, span, parent uint64) []byte {
	if span == 0 {
		return body
	}
	body = append(body, spanMagic)
	body = binary.BigEndian.AppendUint64(body, span)
	return binary.BigEndian.AppendUint64(body, parent)
}

// DecodeWithTrailers decodes a frame body and extracts every optional
// trailer. Missing or malformed trailers yield the zero Trailers, never an
// error: trailers are plumbing, not protocol.
func DecodeWithTrailers(body []byte) (Message, Trailers, error) {
	m, rest, err := decode(body)
	if err != nil {
		return nil, Trailers{}, err
	}
	return m, parseTrailers(rest), nil
}

// parseTrailers walks the bytes after the message fields. The walk must
// consume rest exactly; anything unrecognized, short or malformed discards
// all trailers (the frame is treated as if it had a junk suffix).
func parseTrailers(rest []byte) Trailers {
	var t Trailers
	c := codec.Codec{Buf: rest}
	for c.Err == nil && c.Off < len(rest) {
		var magic, n uint8
		switch c.U8(&magic); magic {
		case traceMagic:
			if c.U8(&n); n == 0 || n > MaxTraceIDLen {
				return Trailers{}
			}
			if b, ok := c.Take(int(n)); ok {
				t.Trace = TraceID(b)
			}
		case seqMagic:
			c.U64(&t.Seq)
			t.HasSeq = true
		case spanMagic:
			c.U64(&t.Span)
			c.U64(&t.Parent)
			t.HasSpan = true
		default:
			return Trailers{}
		}
	}
	if c.Err != nil {
		return Trailers{}
	}
	return t
}
