package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// codec walks one message body in one direction. A message's fields method
// names each field once, in wire order; the same calls append the fields
// when encoding and fill them in when decoding. The first failure sticks:
// after it, decoding calls leave their targets alone and whatever an
// encoding call appends is discarded with the rest of the body.
type codec struct {
	buf []byte // encoding: the body so far; decoding: the body being read
	off int    // decoding: the next unread byte
	enc bool
	err error
}

// codecPool keeps codecs off the heap's fast path: handed to fields through
// the Message interface, a stack codec would escape on every call.
var codecPool = sync.Pool{New: func() any { return new(codec) }}

// Encode serializes a message into a frame body. The returned slice carries
// spare capacity for the optional trailers (AppendTraceID, AppendSeq), so
// stamping a frame does not reallocate it.
func Encode(m Message) ([]byte, error) {
	n := 64
	if h, ok := m.(sizeHinter); ok {
		if hint := h.sizeHint(); hint > n {
			n = hint
		}
	}
	c := codecPool.Get().(*codec)
	c.buf, c.enc = append(make([]byte, 0, n), uint8(m.Op())), true
	m.fields(c)
	body, _, err := c.release()
	if err != nil {
		return nil, fmt.Errorf("wire: encode %v: %w", m.Op(), err)
	}
	return body, nil
}

// Decode parses a frame body into a message, ignoring any trailing bytes
// (including the optional trailers; see DecodeWithTrailers).
func Decode(body []byte) (Message, error) {
	m, _, err := decode(body)
	return m, err
}

// decode parses one message from the front of body and returns what follows
// its last field, where the optional trailers ride.
func decode(body []byte) (Message, []byte, error) {
	c := codecPool.Get().(*codec)
	c.buf, c.enc = body, false
	m := c.message()
	_, off, err := c.release()
	if err != nil {
		return nil, nil, err
	}
	return m, body[off:], nil
}

// release returns the codec to the pool, without the body it walked.
func (c *codec) release() (buf []byte, off int, err error) {
	buf, off, err = c.buf, c.off, c.err
	c.buf, c.off, c.err = nil, 0, nil
	codecPool.Put(c)
	return buf, off, err
}

// message decodes an opcode and then the fields of the type the opcode
// table gives for it.
func (c *codec) message() Message {
	var op uint8
	c.u8(&op)
	if c.err != nil {
		c.err = fmt.Errorf("wire: decode: %w", c.err)
		return nil
	}
	if int(op) >= len(opTable) || opTable[op].new == nil {
		c.err = fmt.Errorf("%w: %d", ErrUnknownOp, op)
		return nil
	}
	m := opTable[op].new()
	m.fields(c)
	if c.err != nil {
		c.err = fmt.Errorf("wire: decode %v: %w", Op(op), c.err)
		return nil
	}
	return m
}

func (c *codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// take consumes the next n bytes of the body being decoded.
func (c *codec) take(n int) ([]byte, bool) {
	if c.err != nil {
		return nil, false
	}
	if n < 0 || n > len(c.buf)-c.off {
		c.err = ErrShort
		return nil, false
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b, true
}

// extend lengthens the body being encoded by n bytes and returns them for the
// caller to fill. Growing in place keeps the buffer pointer where it is:
// the codec lives on the heap, where every pointer store costs a write
// barrier while the collector is marking.
func (c *codec) extend(n int) []byte {
	at := len(c.buf)
	if cap(c.buf)-at < n {
		c.buf = slices.Grow(c.buf, n)
	}
	c.buf = c.buf[:at+n]
	return c.buf[at:]
}

func (c *codec) u8(v *uint8) {
	if c.enc {
		c.buf = append(c.buf, *v)
	} else if b, ok := c.take(1); ok {
		*v = b[0]
	}
}

func (c *codec) u16(v *uint16) {
	if c.enc {
		c.buf = binary.BigEndian.AppendUint16(c.buf, *v)
	} else if b, ok := c.take(2); ok {
		*v = binary.BigEndian.Uint16(b)
	}
}

func (c *codec) u32(v *uint32) {
	if c.enc {
		c.buf = binary.BigEndian.AppendUint32(c.buf, *v)
	} else if b, ok := c.take(4); ok {
		*v = binary.BigEndian.Uint32(b)
	}
}

func (c *codec) u64(v *uint64) {
	if c.enc {
		c.buf = binary.BigEndian.AppendUint64(c.buf, *v)
	} else if b, ok := c.take(8); ok {
		*v = binary.BigEndian.Uint64(b)
	}
}

func (c *codec) i64(v *int64) {
	u := uint64(*v)
	c.u64(&u)
	*v = int64(u)
}

func (c *codec) f64(v *float64) {
	u := math.Float64bits(*v)
	c.u64(&u)
	*v = math.Float64frombits(u)
}

// time is a wall-clock instant as int64 Unix nanoseconds.
func (c *codec) time(v *time.Time) {
	n := v.UnixNano()
	c.i64(&n)
	if !c.enc && c.err == nil {
		*v = time.Unix(0, n)
	}
}

// boolean is one byte, written 0 or 1; any non-zero byte reads as true.
func (c *codec) boolean(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.u8(&b)
	*v = b != 0
}

func (c *codec) str(v *string) {
	if c.enc {
		if len(*v) > math.MaxUint16 {
			c.fail(fmt.Errorf("%w: %d bytes", ErrBadString, len(*v)))
			return
		}
		n := uint16(len(*v))
		c.u16(&n)
		copy(c.extend(len(*v)), *v)
		return
	}
	var n uint16
	c.u16(&n)
	if b, ok := c.take(int(n)); ok {
		*v = string(b)
	}
}

func (c *codec) id(v *object.ID) { c.str((*string)(v)) }

func (c *codec) class(v *object.Class) {
	b := uint8(*v)
	c.u8(&b)
	*v = object.Class(b)
}

// bytes is a payload: a u32 length and the bytes, copied out of the frame
// on decode so the message does not pin the frame buffer.
func (c *codec) bytes(v *[]byte) {
	if c.enc {
		n := uint32(len(*v))
		c.u32(&n)
		copy(c.extend(len(*v)), *v)
		return
	}
	var n uint32
	c.u32(&n)
	if b, ok := c.take(int(n)); ok {
		p := make([]byte, len(b))
		copy(p, b)
		*v = p
	}
}

// importance is the importance package's compact encoding behind a u16
// length. Encoding reserves the length, lets the function append itself in
// place and back-fills the slot; decoding rejects a field the function does
// not fill exactly.
func (c *codec) importance(v *importance.Function) {
	if c.enc {
		at := len(c.buf)
		buf, err := importance.AppendEncode(append(c.buf, 0, 0), *v)
		if err != nil {
			c.fail(err)
			return
		}
		n := len(buf) - at - 2
		if n > math.MaxUint16 {
			c.fail(fmt.Errorf("wire: importance encoding too long: %d bytes", n))
			return
		}
		binary.BigEndian.PutUint16(buf[at:], uint16(n))
		c.buf = buf
		return
	}
	var n uint16
	c.u16(&n)
	b, ok := c.take(int(n))
	if !ok {
		return
	}
	f, used, err := importance.Decode(b)
	switch {
	case err != nil:
		c.fail(err)
	case used != len(b):
		c.fail(fmt.Errorf("wire: importance encoding has %d trailing bytes", len(b)-used))
	default:
		*v = f
	}
}

// elem is how a list walks one element type: the element's fields, and the
// size of its zero value's encoding. Strings are empty in a zero value, so
// no element encodes smaller, and a claimed count the remaining bytes cannot
// hold at that size is refused before anything is allocated for it.
type elem[T any] struct {
	fields func(*T, *codec)
	floor  uint64
}

func elemOf[T any](fields func(*T, *codec)) elem[T] {
	var zero T
	c := codec{enc: true}
	fields(&zero, &c)
	return elem[T]{fields, uint64(len(c.buf))}
}

var (
	idElem         = elemOf(func(v *object.ID, c *codec) { c.id(v) })
	shardStatElem  = elemOf((*ShardStat).fields)
	sampleElem     = elemOf(sampleFields)
	indexEntryElem = elemOf((*IndexEntry).fields)
	memberInfoElem = elemOf((*MemberInfo).fields)
	spanElem       = elemOf(spanFields)
	eventElem      = elemOf(eventFields)
)

// list16 and list32 are a u16 or u32 element count and then the elements.
// The width is part of each message's wire image. Encoding a list the count
// cannot express is an error; an empty list decodes as nil.
func list16[T any](c *codec, s *[]T, e elem[T]) {
	if c.enc && len(*s) > math.MaxUint16 {
		c.fail(fmt.Errorf("wire: list of %d elements exceeds the u16 count", len(*s)))
		return
	}
	n := uint16(len(*s))
	c.u16(&n)
	elems(c, s, uint64(n), e)
}

func list32[T any](c *codec, s *[]T, e elem[T]) {
	if c.enc && uint64(len(*s)) > math.MaxUint32 {
		c.fail(fmt.Errorf("wire: list of %d elements exceeds the u32 count", len(*s)))
		return
	}
	n := uint32(len(*s))
	c.u32(&n)
	elems(c, s, uint64(n), e)
}

func elems[T any](c *codec, s *[]T, n uint64, e elem[T]) {
	if !c.enc {
		if c.err != nil || n == 0 {
			return
		}
		if n > uint64(len(c.buf)-c.off)/e.floor {
			c.err = ErrShort
			return
		}
		*s = make([]T, n)
	}
	for i := range *s {
		if c.err != nil {
			return
		}
		e.fields(&(*s)[i], c)
	}
}
