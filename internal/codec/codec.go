// Package codec holds the big-endian field primitives that every binary
// format of the node is written with: wire messages, journal records and
// importance functions. A format names each of its fields once, in order,
// in a walk over a Codec; the same calls append the fields when encoding
// and fill them in when decoding.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Errors a walk can stop with.
var (
	// ErrShort reports a truncated body: a field, or a count of
	// elements, runs past the bytes left.
	ErrShort = errors.New("codec: short buffer")
	// ErrTooLong reports a string too long for its u16 length.
	ErrTooLong = errors.New("codec: string too long")
)

// Codec walks one body in one direction. Encoding only reads through the
// pointers it is handed, so a walk may encode a value other goroutines
// share. The first failure sticks: after it, decoding calls leave their
// targets alone, and whatever an encoding call appends is discarded with
// the rest of the body by whoever checks Err.
type Codec struct {
	Buf []byte // encoding: the body so far; decoding: the body being read
	Off int    // decoding: the next unread byte
	Enc bool
	Err error
}

// Fail records err unless an earlier failure already stopped the walk.
func (c *Codec) Fail(err error) {
	if c.Err == nil {
		c.Err = err
	}
}

// Take consumes the next n bytes of the body being decoded.
func (c *Codec) Take(n int) ([]byte, bool) {
	if c.Err != nil || n < 0 || n > len(c.Buf)-c.Off {
		c.Fail(ErrShort)
		return nil, false
	}
	c.Off += n
	return c.Buf[c.Off-n : c.Off], true
}

// Fits reports whether the body being decoded can still hold n elements of
// at least min > 0 bytes each, and fails the walk with ErrShort when it cannot.
// A decoder asks before it allocates for a claimed count, so a hostile
// count costs nothing.
func (c *Codec) Fits(n, min uint64) bool {
	if c.Err == nil && n > uint64(len(c.Buf)-c.Off)/min {
		c.Err = ErrShort
	}
	return c.Err == nil
}

// extend lengthens the body being encoded by n bytes and returns them for
// the caller to fill. Growing in place keeps the buffer pointer where it
// is: a pooled codec lives on the heap, where every pointer store costs a
// write barrier while the collector is marking.
func (c *Codec) extend(n int) []byte {
	at := len(c.Buf)
	if cap(c.Buf)-at < n {
		c.Buf = slices.Grow(c.Buf, n)
	}
	c.Buf = c.Buf[:at+n]
	return c.Buf[at:]
}

// Backfill16 writes, as the u16 at at, the size of what was encoded after
// it: a field whose length is known only once it is written in place behind
// two reserved bytes.
func (c *Codec) Backfill16(at int) {
	n := len(c.Buf) - at - 2
	if n > math.MaxUint16 {
		c.Fail(fmt.Errorf("codec: %d-byte field exceeds its u16 length", n))
		return
	}
	binary.BigEndian.PutUint16(c.Buf[at:], uint16(n))
}

// U8 is one byte.
func (c *Codec) U8(v *uint8) {
	if c.Enc {
		c.Buf = append(c.Buf, *v)
	} else if b, ok := c.Take(1); ok {
		*v = b[0]
	}
}

// U16 is two bytes, big-endian.
func (c *Codec) U16(v *uint16) {
	if c.Enc {
		c.Buf = binary.BigEndian.AppendUint16(c.Buf, *v)
	} else if b, ok := c.Take(2); ok {
		*v = binary.BigEndian.Uint16(b)
	}
}

// U32 is four bytes, big-endian.
func (c *Codec) U32(v *uint32) {
	if c.Enc {
		c.Buf = binary.BigEndian.AppendUint32(c.Buf, *v)
	} else if b, ok := c.Take(4); ok {
		*v = binary.BigEndian.Uint32(b)
	}
}

// U64 is eight bytes, big-endian.
func (c *Codec) U64(v *uint64) {
	if c.Enc {
		c.Buf = binary.BigEndian.AppendUint64(c.Buf, *v)
	} else if b, ok := c.Take(8); ok {
		*v = binary.BigEndian.Uint64(b)
	}
}

// I64 is a two's-complement u64; a time.Duration walks as one through
// (*int64)(&d).
func (c *Codec) I64(v *int64) {
	if c.Enc {
		c.Buf = binary.BigEndian.AppendUint64(c.Buf, uint64(*v))
	} else if b, ok := c.Take(8); ok {
		*v = int64(binary.BigEndian.Uint64(b))
	}
}

// F64 is an IEEE 754 binary64's bits as a u64.
func (c *Codec) F64(v *float64) {
	if c.Enc {
		c.Buf = binary.BigEndian.AppendUint64(c.Buf, math.Float64bits(*v))
	} else if b, ok := c.Take(8); ok {
		*v = math.Float64frombits(binary.BigEndian.Uint64(b))
	}
}

// Bool is one byte, written 0 or 1; any non-zero byte reads as true.
func (c *Codec) Bool(v *bool) {
	if c.Enc {
		var b uint8
		if *v {
			b = 1
		}
		c.Buf = append(c.Buf, b)
	} else if b, ok := c.Take(1); ok {
		*v = b[0] != 0
	}
}

// Str is a u16 length and the string's bytes; encoding a longer string
// fails with ErrTooLong.
func (c *Codec) Str(v *string) {
	if c.Enc {
		if len(*v) > math.MaxUint16 {
			c.Fail(fmt.Errorf("%w: %d bytes", ErrTooLong, len(*v)))
			return
		}
		n := uint16(len(*v))
		c.U16(&n)
		copy(c.extend(len(*v)), *v)
		return
	}
	var n uint16
	c.U16(&n)
	if b, ok := c.Take(int(n)); ok {
		*v = string(b)
	}
}

// Bytes is a payload: a u32 length and the bytes. Decoding does not copy:
// the payload is the body's own slice, its capacity cut at its length so
// that a holder's append reallocates instead of overwriting the next field.
func (c *Codec) Bytes(v *[]byte) {
	if c.Enc {
		n := uint32(len(*v))
		c.U32(&n)
		copy(c.extend(len(*v)), *v)
		return
	}
	var n uint32
	c.U32(&n)
	if b, ok := c.Take(int(n)); ok {
		*v = b[:len(b):len(b)]
	}
}
