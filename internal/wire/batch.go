package wire

// The BATCH op carries many requests in one frame so a burst of operations
// costs one round trip instead of N (the group-admission workload of
// short-lived-data ingest, see DESIGN.md "Pipelining and batches"). Framing:
//
//	[1]byte OpBatch  [2]byte count  count x ( [4]byte length  sub body )
//
// Each sub body is a complete encoded message starting with its own opcode.
// The response mirrors the shape with OpBatchResult: result i answers sub i,
// and a failed sub is reported in place as an OpError message, so one bad
// sub never poisons its neighbours. Batches never nest: a batch sub that is
// itself a batch is rejected at decode time, bounding recursion depth.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"besteffs/internal/codec"
)

// MaxBatchSubs bounds the sub-messages one BATCH frame may carry. The cap
// exists for the same reason as MaxFrameSize: a hostile count must not
// drive allocation; servers may enforce a lower operational limit.
const MaxBatchSubs = 4096

// ErrBatchNested reports a batch sub-message that is itself a batch.
var ErrBatchNested = errors.New("wire: nested batch")

// Batch groups many requests into one frame.
type Batch struct {
	// Subs are the sub-requests, answered positionally by BatchResult.
	Subs []Message
}

// Op implements Message.
func (*Batch) Op() Op { return OpBatch }

// sizeHint sums the subs' hints so a batch frame encodes in one
// allocation instead of growing through every append.
func (m *Batch) sizeHint() int {
	n := 64
	for _, sub := range m.Subs {
		if h, ok := sub.(sizeHinter); ok {
			n += 4 + h.sizeHint()
		} else {
			n += 96
		}
	}
	return n
}

func (m *Batch) fields(c *codec.Codec) { subs(c, OpBatch, &m.Subs) }

// BatchResult answers a Batch: Results[i] is the response to Subs[i],
// an OpError message when that sub failed.
type BatchResult struct {
	Results []Message
}

// Op implements Message.
func (*BatchResult) Op() Op { return OpBatchResult }

func (m *BatchResult) fields(c *codec.Codec) { subs(c, OpBatchResult, &m.Results) }

func isBatch(op Op) bool { return op == OpBatch || op == OpBatchResult }

// subs walks the sub-messages of a BATCH or BATCH_RESULT. A sub is encoded
// in place behind a reserved length that is back-filled once its size is
// known, and decoded from its slice of the frame, so neither direction
// copies a sub body.
func subs(c *codec.Codec, op Op, v *[]Message) {
	if c.Enc {
		appendSubs(c, op, *v)
		return
	}
	*v = decodeSubs(c, op, nil, nil)
}

// decodeSubs decodes the subs of a BATCH or BATCH_RESULT onto dst and
// returns dst extended by them, each sub kept by d (see message).
func decodeSubs(c *codec.Codec, op Op, dst []Message, d *Decoder) []Message {
	var n uint16
	c.U16(&n)
	switch {
	case c.Err != nil:
		return dst
	case n == 0:
		c.Err = fmt.Errorf("wire: empty %v", op)
		return dst
	case n > MaxBatchSubs:
		c.Err = fmt.Errorf("wire: %v of %d subs exceeds %d", op, n, MaxBatchSubs)
		return dst
	case !c.Fits(uint64(n), 4):
		// Every sub costs at least its 4-byte length prefix; reject
		// impossible counts before allocating the slice.
		return dst
	}
	dst = slices.Grow(dst, int(n))
	frame := c.Buf
	for i := 0; i < int(n); i++ {
		var size uint32
		c.U32(&size)
		body, ok := c.Take(int(size))
		if !ok {
			c.Err = fmt.Errorf("wire: %v sub %d: %w", op, i, c.Err)
			return dst
		}
		// Refuse nesting before recursing into message, so a crafted
		// frame cannot stack batches inside batches.
		if len(body) > 0 && isBatch(Op(body[0])) {
			c.Err = fmt.Errorf("%w: sub %d", ErrBatchNested, i)
			return dst
		}
		// Narrow the codec to the sub's bytes while it decodes.
		end := c.Off
		c.Buf, c.Off = frame[:end], end-len(body)
		sub := message(c, d)
		c.Buf = frame
		if c.Err != nil {
			c.Err = fmt.Errorf("wire: %v sub %d: %w", op, i, c.Err)
			return dst
		}
		if c.Off != end {
			c.Err = fmt.Errorf("wire: %v sub %d has %d trailing bytes", op, i, end-c.Off)
			return dst
		}
		dst = append(dst, sub)
	}
	return dst
}

func appendSubs(c *codec.Codec, op Op, subs []Message) {
	if len(subs) == 0 {
		c.Fail(fmt.Errorf("wire: empty %v", op))
		return
	}
	if len(subs) > MaxBatchSubs {
		c.Fail(fmt.Errorf("wire: %v of %d subs exceeds %d", op, len(subs), MaxBatchSubs))
		return
	}
	c.Buf = binary.BigEndian.AppendUint16(c.Buf, uint16(len(subs)))
	for i, sub := range subs {
		if sub == nil {
			c.Fail(fmt.Errorf("wire: %v sub %d is nil", op, i))
			return
		}
		if isBatch(sub.Op()) {
			c.Fail(fmt.Errorf("%w: sub %d", ErrBatchNested, i))
			return
		}
		at := len(c.Buf)
		c.Buf = append(c.Buf, 0, 0, 0, 0, uint8(sub.Op()))
		sub.fields(c)
		if c.Err != nil {
			c.Err = fmt.Errorf("wire: %v sub %d: %w", op, i, c.Err)
			return
		}
		binary.BigEndian.PutUint32(c.Buf[at:], uint32(len(c.Buf)-at-4))
	}
}
