// Package wire defines the binary protocol spoken between Besteffs storage
// nodes and clients: length-prefixed frames carrying fixed-layout messages.
// The protocol surfaces exactly the operations the paper's architecture
// needs -- store with an importance annotation, retrieve, delete, probe a
// unit for the highest importance it would preempt (the distributed
// placement primitive of Section 5.3), and read the storage importance
// density (the annotation-feedback signal of Section 5.1.2).
//
// Framing: a 4-byte big-endian body length (at most MaxFrameSize), then the
// body. The first body byte is the opcode; the message's fields follow in
// the order its fields method names them to a codec.Codec, each in one of
// these encodings (numbers big-endian):
//
//	u8 u16 u32 u64   unsigned integer of that width
//	i64              two's complement in 8 bytes
//	f64              IEEE 754 bits in 8 bytes
//	boolean          1 byte, written 0 or 1; any non-zero byte reads as true
//	str, id          u16 length, then that many bytes (codec.ErrTooLong beyond 65535)
//	class            object.Class in 1 byte
//	bytes            u32 length, then the payload
//	importance       u16 length, then the importance package's compact codec,
//	                 which must fill the length exactly (importance.Field)
//	list16, list32   u16 or u32 element count, then the elements' fields
//	record           a struct's fields in place, no prefix (MemberInfo, ClusterConfig)
//	subs             BATCH only, see batch.go: u16 count, then per sub a u32
//	                 length and a complete message, opcode first
//
// Lists obey two rules everywhere. Encoding fails when the list is longer
// than its count field can say. Decoding refuses a count that the bytes left
// in the body could not hold even at the element's smallest encoding, before
// allocating for it. Lengths the encoder cannot know up front (importance,
// BATCH subs) are reserved, written past and back-filled, so a nested
// encoding lands in the frame buffer directly instead of in a buffer of its
// own that is then copied.
//
// Adding a message is five things: the Op constant, the struct with its Op
// method, its fields method, one opTable row, and one golden frame under
// testdata/golden (the golden test prints the hex to save). Bytes after the
// last field are not the message's; the optional trailers ride there (see
// trace.go).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"besteffs/internal/codec"
)

// MaxFrameSize bounds a frame body; larger frames are rejected before
// allocation, so a hostile peer cannot trigger unbounded memory use.
const MaxFrameSize = 64 << 20

// Op identifies a message type. Values are wire-stable; never renumber.
type Op uint8

// Request opcodes.
const (
	OpInvalid Op = iota
	OpPut
	OpGet
	OpDelete
	OpStat
	OpProbe
	OpDensity
	OpList
	OpRejuvenate
	OpUpdate
	OpDensityHistory
	OpBatch
	OpReplicate
	_ // 13: INDEX, retired: no node sends it since the repair loop speaks INDEX_DELTA
	_ // 14: INDEX_DIFF, retired for INDEX_DELTA; the number stays unassigned
	OpGossip
	OpMembers
	OpRepairStatus
	OpTraceDump
	OpEvents
	OpIndexDelta
)

// Response opcodes.
const (
	OpPutResult Op = 128 + iota
	OpObject
	OpOK
	OpStatResult
	OpProbeResult
	OpDensityResult
	OpListResult
	OpError
	OpRejuvenateResult
	OpDensityHistoryResult
	OpBatchResult
	_ // 139: INDEX_RESULT, retired with its request
	_ // 140: INDEX_DIFF_RESULT, retired with its request
	OpGossipResult
	OpMembersResult
	OpRepairStatusResult
	OpTraceDumpResult
	OpEventsResult
	OpIndexDeltaResult
)

// opTable is the one place an opcode is declared beyond its constant: its
// mnemonic and the message type that carries it. Op.String, RequestOps, the
// decoder and the golden-corpus test all read it. Opcodes below OpPutResult
// (128) are requests, the rest responses.
var opTable = [...]struct {
	name string
	new  func() Message
}{
	OpPut:                  {"PUT", func() Message { return new(Put) }},
	OpGet:                  {"GET", func() Message { return new(Get) }},
	OpDelete:               {"DELETE", func() Message { return new(Delete) }},
	OpStat:                 {"STAT", func() Message { return new(Stat) }},
	OpProbe:                {"PROBE", func() Message { return new(Probe) }},
	OpDensity:              {"DENSITY", func() Message { return new(Density) }},
	OpList:                 {"LIST", func() Message { return new(List) }},
	OpRejuvenate:           {"REJUVENATE", func() Message { return new(Rejuvenate) }},
	OpUpdate:               {"UPDATE", func() Message { return new(Update) }},
	OpDensityHistory:       {"DENSITY_HISTORY", func() Message { return new(DensityHistory) }},
	OpBatch:                {"BATCH", func() Message { return new(Batch) }},
	OpReplicate:            {"REPLICATE", func() Message { return new(Replicate) }},
	OpGossip:               {"GOSSIP", func() Message { return new(Gossip) }},
	OpMembers:              {"MEMBERS", func() Message { return new(Members) }},
	OpRepairStatus:         {"REPAIR_STATUS", func() Message { return new(RepairStatus) }},
	OpTraceDump:            {"TRACE_DUMP", func() Message { return new(TraceDump) }},
	OpEvents:               {"EVENTS", func() Message { return new(Events) }},
	OpIndexDelta:           {"INDEX_DELTA", func() Message { return new(IndexDelta) }},
	OpPutResult:            {"PUT_RESULT", func() Message { return new(PutResult) }},
	OpObject:               {"OBJECT", func() Message { return new(ObjectMsg) }},
	OpOK:                   {"OK", func() Message { return new(OK) }},
	OpStatResult:           {"STAT_RESULT", func() Message { return new(StatResult) }},
	OpProbeResult:          {"PROBE_RESULT", func() Message { return new(ProbeResult) }},
	OpDensityResult:        {"DENSITY_RESULT", func() Message { return new(DensityResult) }},
	OpListResult:           {"LIST_RESULT", func() Message { return new(ListResult) }},
	OpError:                {"ERROR", func() Message { return new(ErrorMsg) }},
	OpRejuvenateResult:     {"REJUVENATE_RESULT", func() Message { return new(RejuvenateResult) }},
	OpDensityHistoryResult: {"DENSITY_HISTORY_RESULT", func() Message { return new(DensityHistoryResult) }},
	OpBatchResult:          {"BATCH_RESULT", func() Message { return new(BatchResult) }},
	OpGossipResult:         {"GOSSIP_RESULT", func() Message { return new(GossipResult) }},
	OpMembersResult:        {"MEMBERS_RESULT", func() Message { return new(MembersResult) }},
	OpRepairStatusResult:   {"REPAIR_STATUS_RESULT", func() Message { return new(RepairStatusResult) }},
	OpTraceDumpResult:      {"TRACE_DUMP_RESULT", func() Message { return new(TraceDumpResult) }},
	OpEventsResult:         {"EVENTS_RESULT", func() Message { return new(EventsResult) }},
	OpIndexDeltaResult:     {"INDEX_DELTA_RESULT", func() Message { return new(IndexDeltaResult) }},
}

// RequestOps lists every request opcode in wire order, for callers that
// build per-operation instrument series (one metrics family label per op).
func RequestOps() []Op {
	var ops []Op
	for op := OpInvalid; op < OpPutResult; op++ {
		if opTable[op].new != nil {
			ops = append(ops, op)
		}
	}
	return ops
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opTable) && opTable[o].name != "" {
		return opTable[o].name
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// Protocol errors.
var (
	// ErrFrameTooLarge reports a frame beyond MaxFrameSize.
	ErrFrameTooLarge = errors.New("wire: frame too large")
	// ErrShort reports a truncated message body: it is codec.ErrShort.
	ErrShort = codec.ErrShort
)

// WriteFrame writes one frame (opcode + body) to w.
func WriteFrame(w io.Writer, body []byte) error {
	if len(body) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(body))
	}
	if _, err := w.Write(binary.BigEndian.AppendUint32(nil, uint32(len(body)))); err != nil {
		return fmt.Errorf("wire: write frame header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("wire: write frame body: %w", err)
	}
	return nil
}

// readAhead bounds how far AppendFrame grows its buffer ahead of the body
// bytes that have arrived, so a header alone cannot make a reader hold
// MaxFrameSize.
const readAhead = 1 << 20

// ReadFrame reads one frame body from r into a buffer of its own: it is
// AppendFrame with no buffer to reuse.
func ReadFrame(r io.Reader) ([]byte, error) { return AppendFrame(nil, r) }

// AppendFrame reads one frame from r and appends its body to buf; the body
// is the returned slice past len(buf). io.EOF before the header means a
// clean connection close and is returned verbatim. A body is read in
// pieces, none longer than readAhead or than what arrived before it,
// whichever is more, so the buffer grows with the bytes that arrive and not
// with the length a header claims. On an error the slice returned holds
// buf's bytes alone. The header is read into buf's spare capacity, or byte
// by byte from a reader that gives single bytes (a bufio.Reader), so
// nothing is allocated for it.
func AppendFrame(buf []byte, r io.Reader) ([]byte, error) {
	n, err := readHeader(buf, r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return buf, io.EOF
		}
		return buf, fmt.Errorf("wire: read frame header: %w", err)
	}
	if n > MaxFrameSize {
		return buf, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	for start, got := len(buf), 0; got < int(n); {
		at, k := len(buf), min(int(n)-got, max(readAhead, got))
		if cap(buf)-at < k {
			// Not slices.Grow: under -race it allocates the growth twice.
			buf = append(make([]byte, 0, max(at+k, 2*cap(buf))), buf...)
		}
		buf = buf[:at+k]
		if _, err := io.ReadFull(r, buf[at:]); err != nil {
			return buf[:start], fmt.Errorf("wire: read frame body: %w", err)
		}
		got += k
	}
	return buf, nil
}

// readHeader reads a frame header from r and returns the body length it
// holds. io.EOF means r ended before the header began; io.ErrUnexpectedEOF,
// inside it.
func readHeader(buf []byte, r io.Reader) (uint32, error) {
	if br, ok := r.(io.ByteReader); ok && cap(buf)-len(buf) < 4 {
		var n uint32
		for i := range 4 {
			b, err := br.ReadByte()
			if err != nil {
				if i > 0 && errors.Is(err, io.EOF) {
					err = io.ErrUnexpectedEOF
				}
				return 0, err
			}
			n = n<<8 | uint32(b)
		}
		return n, nil
	}
	hdr := buf[len(buf):cap(buf)]
	if len(hdr) < 4 {
		hdr = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(hdr), nil
}
