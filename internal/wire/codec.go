package wire

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"besteffs/internal/codec"
	"besteffs/internal/object"
)

// codecPool keeps codecs off the heap's fast path: handed to fields through
// the Message interface, a stack codec would escape on every call.
var codecPool = sync.Pool{New: func() any { return new(codec.Codec) }}

// Encode serializes a message into a frame body of its own: it is
// AppendEncode with no buffer to reuse.
func Encode(m Message) ([]byte, error) { return AppendEncode(nil, m) }

// AppendEncode serializes a message into a frame body appended to dst; the
// body is the returned slice past len(dst). When dst lacks room, it grows by
// the message's size hint plus spare capacity for the optional trailers
// (AppendTraceID, AppendSeq), so stamping the frame does not reallocate it.
// On an error the slice returned holds dst's bytes alone.
func AppendEncode(dst []byte, m Message) ([]byte, error) {
	n := 64
	if h, ok := m.(sizeHinter); ok {
		n = max(n, h.sizeHint())
	}
	at := len(dst)
	c := codecPool.Get().(*codec.Codec)
	c.Buf, c.Enc = append(slices.Grow(dst, n), uint8(m.Op())), true
	m.fields(c)
	buf, _, err := release(c)
	if err != nil {
		return buf[:at], fmt.Errorf("wire: encode %v: %w", m.Op(), err)
	}
	return buf, nil
}

// Decode parses a frame body into a message, ignoring any trailing bytes
// (including the optional trailers; see DecodeWithTrailers). The message
// aliases body: its payload fields (Put, Update, Replicate, ObjectMsg) are
// slices of it, with no capacity past their own bytes. Whoever keeps such a
// payload past body's reuse must copy it. Every other field is copied out.
func Decode(body []byte) (Message, error) {
	m, _, err := decode(body)
	return m, err
}

// decode parses one message from the front of body and returns what follows
// its last field, where the optional trailers ride.
func decode(body []byte) (Message, []byte, error) {
	c := codecPool.Get().(*codec.Codec)
	c.Buf, c.Enc = body, false
	m := message(c, nil)
	_, off, err := release(c)
	if err != nil {
		return nil, nil, err
	}
	return m, body[off:], nil
}

// release returns the codec to the pool, without the body it walked.
func release(c *codec.Codec) (buf []byte, off int, err error) {
	buf, off, err = c.Buf, c.Off, c.Err
	c.Buf, c.Off, c.Err = nil, 0, nil
	codecPool.Put(c)
	return buf, off, err
}

// message decodes an opcode and then the fields of the type the opcode
// table gives for it: into a message d keeps, when d is not nil and keeps
// messages of that type (Decoder.decode).
func message(c *codec.Codec, d *Decoder) Message {
	var op uint8
	c.U8(&op)
	if c.Err != nil {
		c.Err = fmt.Errorf("wire: decode: %w", c.Err)
		return nil
	}
	if int(op) >= len(opTable) || opTable[op].new == nil {
		c.Err = fmt.Errorf("%w: %d", ErrUnknownOp, op)
		return nil
	}
	var m Message
	if d != nil {
		m = d.decode(c, Op(op))
	}
	if m == nil {
		m = opTable[op].new()
		m.fields(c)
	}
	if c.Err != nil {
		c.Err = fmt.Errorf("wire: decode %v: %w", Op(op), c.Err)
		return nil
	}
	return m
}

// instant is a wall-clock instant as int64 Unix nanoseconds.
func instant(c *codec.Codec, v *time.Time) {
	n := v.UnixNano()
	c.I64(&n)
	if !c.Enc && c.Err == nil {
		*v = time.Unix(0, n)
	}
}

func id(c *codec.Codec, v *object.ID) { c.Str((*string)(v)) }

func class(c *codec.Codec, v *object.Class) { c.U8((*uint8)(v)) }

// elem is how a list walks one element type: the element's fields, and the
// size of its zero value's encoding. Strings are empty in a zero value, so
// no element encodes smaller, and a claimed count the remaining bytes cannot
// hold at that size is refused before anything is allocated for it.
type elem[T any] struct {
	fields func(*T, *codec.Codec)
	floor  uint64
}

func elemOf[T any](fields func(*T, *codec.Codec)) elem[T] {
	var zero T
	c := codec.Codec{Enc: true}
	fields(&zero, &c)
	return elem[T]{fields, uint64(len(c.Buf))}
}

var (
	idElem         = elemOf(func(v *object.ID, c *codec.Codec) { id(c, v) })
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
func list16[T any](c *codec.Codec, s *[]T, e elem[T]) {
	if c.Enc && len(*s) > math.MaxUint16 {
		c.Fail(fmt.Errorf("wire: list of %d elements exceeds the u16 count", len(*s)))
		return
	}
	n := uint16(len(*s))
	c.U16(&n)
	elems(c, s, uint64(n), e)
}

func list32[T any](c *codec.Codec, s *[]T, e elem[T]) {
	if c.Enc && uint64(len(*s)) > math.MaxUint32 {
		c.Fail(fmt.Errorf("wire: list of %d elements exceeds the u32 count", len(*s)))
		return
	}
	n := uint32(len(*s))
	c.U32(&n)
	elems(c, s, uint64(n), e)
}

func elems[T any](c *codec.Codec, s *[]T, n uint64, e elem[T]) {
	if !c.Enc {
		if n == 0 || !c.Fits(n, e.floor) {
			return
		}
		*s = make([]T, n)
	}
	for i := range *s {
		if c.Err != nil {
			return
		}
		e.fields(&(*s)[i], c)
	}
}
