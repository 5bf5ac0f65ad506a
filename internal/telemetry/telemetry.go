// Package telemetry is the cluster observability core: distributed spans,
// a flight recorder of structured decision events (admissions, evictions,
// boundary movement, replication, membership, quarantine) and the density
// trajectory, each kept per node in one kind of lock-free Ring. The rings
// are allocation-light enough to record on the request hot path and bounded
// enough to run forever, and the records go to the wire, the status JSON
// and besteffsctl as they are.
//
// The span model is deliberately small. A trace ID names one logical
// operation end to end (a put and the replica pushes it fans out, a
// quarantined get and the healing pull behind it, one anti-entropy pass).
// Every hop of that operation is one span: a span ID, the parent span it
// descends from, the node that executed it, and its start/duration. Spans
// are recorded where the work happened; `besteffsctl trace` gathers each
// node's ring via the TRACE_DUMP wire op and Assemble stitches the
// cross-node tree back together.
//
// The package depends only on the standard library so every layer -- wire,
// store, client, server, member, repair -- can use it without import
// cycles.
package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// Span is one recorded hop of a traced operation.
type Span struct {
	// Trace names the operation this span belongs to.
	Trace string
	// ID identifies this span within the trace.
	ID uint64
	// Parent is the span this one descends from (0 for roots).
	Parent uint64
	// Name says what the hop did ("put", "replicate", "repair-pull", ...).
	Name string
	// Node is the advertised address of the node that executed the span.
	Node string
	// Peer is the remote address for cross-node hops ("" otherwise).
	Peer string
	// Start is the wall-clock start of the span.
	Start time.Time
	// Duration is how long the span took.
	Duration time.Duration
	// Note carries a short outcome annotation ("admitted", "refused", an
	// error string).
	Note string
}

// DensitySample is one point on a node's density trajectory: the live
// counterpart of the simulated density time series the paper's figures
// plot. An operator (or client library) watches the trajectory to predict
// the importance level at which the node will "appear full".
type DensitySample struct {
	// At is the node's virtual time of the sample.
	At time.Duration `json:"at_nanos"`
	// Density is the storage importance density at that time (Section
	// 5.1.2): every stored byte scaled by its current importance, over
	// capacity.
	Density float64 `json:"density"`
	// Used is the allocated bytes at that time.
	Used int64 `json:"used_bytes"`
	// Boundary is the importance boundary at that time: the importance
	// level an arrival must exceed to claim the next byte. Zero while free
	// space remains; the lowest current importance among residents once
	// the storage is full.
	Boundary float64 `json:"boundary"`
}

// ID minting: a per-process random prefix plus an atomic sequence, the same
// no-coordination scheme the client has always used for trace IDs. Span IDs
// pack the prefix into the high 32 bits so IDs minted on different nodes of
// one trace cannot collide.
var (
	idPrefix = func() uint64 {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return uint64(time.Now().UnixNano()) & 0xFFFFFFFF
		}
		return uint64(binary.BigEndian.Uint32(b[:]))
	}()
	idSeq atomic.Uint64

	tracePrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "t0"
		}
		return hex.EncodeToString(b[:])
	}()
	traceSeq atomic.Uint64
)

// NewSpanID mints a process-unique, cluster-collision-resistant span ID.
// Never returns 0 (0 means "no parent").
func NewSpanID() uint64 {
	return idPrefix<<32 | (idSeq.Add(1) & 0xFFFFFFFF)
}

// NewTraceID mints a trace ID, e.g. "9f3a1c2b-00004d": a per-process random
// prefix plus a sequence, built by hand because one is minted per request
// and fmt overhead is measurable on the pipelined hot path.
func NewTraceID() string {
	seq := traceSeq.Add(1)
	const hexdigits = "0123456789abcdef"
	digits := 6
	for v := seq >> 24; v > 0; v >>= 4 {
		digits++
	}
	var buf [32]byte
	b := append(buf[:0], tracePrefix...)
	b = append(b, '-')
	for i := digits*4 - 4; i >= 0; i -= 4 {
		b = append(b, hexdigits[(seq>>uint(i))&0xF])
	}
	return string(b)
}
