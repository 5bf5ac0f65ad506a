package importance

import (
	"errors"
	"fmt"
	"math"
	"time"

	"besteffs/internal/codec"
)

// Kind identifies a concrete importance function family on the wire.
type Kind uint8

// Wire kinds. Values are part of the wire protocol; never renumber.
const (
	KindInvalid Kind = iota
	KindTwoStep
	KindConstant
	KindDirac
	KindLinear
	KindExponential
	KindPiecewise
	KindMin
	KindProduct
)

// maxCombineDepth bounds combinator nesting accepted by Decode, so a
// hostile peer cannot exhaust the stack with deeply nested encodings.
const maxCombineDepth = 8

// pointSize is one piecewise point's encoding: its age and its value.
const pointSize = 16

// Codec errors.
var (
	// ErrUnknownKind reports an unrecognized wire kind.
	ErrUnknownKind = errors.New("importance: unknown function kind")
	// ErrShortBuffer reports a truncated encoding: it is codec.ErrShort,
	// which every binary format of the node fails with.
	ErrShortBuffer = codec.ErrShort
)

// AppendEncode appends the compact binary encoding of f to dst and returns
// the extended slice. Only the function families defined in this package can
// be encoded. The layout is one kind byte followed by the family parameters
// as big-endian fixed-width fields (float64 levels, int64 nanosecond
// durations, uint16 point and operand counts).
func AppendEncode(dst []byte, f Function) ([]byte, error) {
	c := codec.Codec{Buf: dst, Enc: true}
	encode(&c, f)
	if c.Err != nil {
		return nil, c.Err
	}
	return c.Buf, nil
}

// Encode returns the compact binary encoding of f.
func Encode(f Function) ([]byte, error) {
	return AppendEncode(nil, f)
}

// Decode parses one encoded function from the front of buf and returns the
// function together with the number of bytes consumed. Decoded parameters
// are re-validated, so a hostile peer cannot smuggle an out-of-range or
// non-monotone function past the codec.
func Decode(buf []byte) (Function, int, error) {
	c := codec.Codec{Buf: buf}
	f := decode(&c, 0, true)
	if c.Err != nil {
		return nil, 0, c.Err
	}
	return f, c.Off, nil
}

// Check reports whether buf is exactly one function's encoding, refusing
// what Field's decoding refuses with the same error, without building the
// function: a flat family's parameters pass through its constructor and the
// value is dropped, never boxed. (A piecewise function or a combinator is
// built and dropped: their constructors copy what they are given.)
func Check(buf []byte) error {
	_, err := exact(buf, false)
	return err
}

// exact decodes buf as one function's encoding with nothing after it: the
// function itself when keep is set, else only whether it would decode.
func exact(buf []byte, keep bool) (Function, error) {
	c := codec.Codec{Buf: buf}
	f := decode(&c, 0, keep)
	switch {
	case c.Err != nil:
		return nil, c.Err
	case c.Off != len(buf):
		return nil, fmt.Errorf("importance encoding has %d trailing bytes", len(buf)-c.Off)
	}
	return f, nil
}

// Field walks f as wire messages and journal records carry it: its encoding
// behind a u16 byte length. Encoding writes f in place and back-fills the
// length; decoding refuses a field that holds more than one function.
func Field(c *codec.Codec, f *Function) {
	if c.Enc {
		at := len(c.Buf)
		c.Buf = append(c.Buf, 0, 0)
		encode(c, *f)
		c.Backfill16(at)
		return
	}
	if b, ok := take(c); ok {
		if g, err := exact(b, true); err != nil {
			c.Fail(err)
		} else {
			*f = g
		}
	}
}

// EncodedField walks the same field as Field, with the function held as its
// encoding. Decoding keeps the field's bytes, a slice of the body being
// read, once Check accepts them, so it refuses exactly what Field refuses
// and builds nothing; encoding copies the bytes in.
func EncodedField(c *codec.Codec, enc *[]byte) {
	if c.Enc {
		if len(*enc) > math.MaxUint16 {
			c.Fail(fmt.Errorf("importance: a %d-byte encoding exceeds the u16 length", len(*enc)))
			return
		}
		n := uint16(len(*enc))
		c.U16(&n)
		c.Buf = append(c.Buf, *enc...)
		return
	}
	if b, ok := take(c); ok {
		if err := Check(b); err != nil {
			c.Fail(err)
		} else {
			*enc = b[:len(b):len(b)]
		}
	}
}

// take reads a field's u16 length and the bytes it counts.
func take(c *codec.Codec) ([]byte, bool) {
	var n uint16
	c.U16(&n)
	return c.Take(int(n))
}

// encode appends f's kind and then its parameters.
func encode(c *codec.Codec, f Function) {
	switch f := f.(type) {
	case TwoStep:
		kind(c, KindTwoStep)
		c.F64(&f.Plateau)
		c.I64((*int64)(&f.Persist))
		c.I64((*int64)(&f.Wane))
	case Constant:
		kind(c, KindConstant)
		c.F64(&f.Level)
	case Dirac:
		kind(c, KindDirac)
	case Linear:
		kind(c, KindLinear)
		c.F64(&f.Start)
		c.I64((*int64)(&f.Expire))
	case Exponential:
		kind(c, KindExponential)
		c.F64(&f.Start)
		c.I64((*int64)(&f.HalfLife))
		c.I64((*int64)(&f.Expire))
	case Piecewise:
		kind(c, KindPiecewise)
		count(c, len(f.points), pointSize)
		for _, p := range f.points {
			c.I64((*int64)(&p.Age))
			c.F64(&p.Value)
		}
	case Min:
		kind(c, KindMin)
		operands(c, f.fns)
	case Product:
		kind(c, KindProduct)
		operands(c, f.fns)
	default:
		c.Fail(fmt.Errorf("%w: %T", ErrUnknownKind, f))
	}
}

func kind(c *codec.Codec, k Kind) { c.U8((*uint8)(&k)) }

// count walks a u16 point or operand count. Encoding refuses n past what a
// u16 holds; decoding returns the count read, or 0 when the bytes left
// cannot hold that many elements of at least min bytes each.
func count(c *codec.Codec, n int, min uint64) int {
	if n > math.MaxUint16 {
		c.Fail(fmt.Errorf("importance: %d points or operands exceed the u16 count", n))
		return 0
	}
	u := uint16(n)
	c.U16(&u)
	if !c.Enc && !c.Fits(uint64(u), min) {
		return 0
	}
	return int(u)
}

func operands(c *codec.Codec, fns []Function) {
	count(c, len(fns), 1)
	for _, f := range fns {
		encode(c, f)
	}
}

// decode reads a kind and its parameters, and checks them through its
// family's constructor: the function it returns is the one built, or nil
// when keep is not set. When the body runs out mid-family, the missing
// parameters read as zero and the constructor's answer is dropped.
func decode(c *codec.Codec, depth int, keep bool) Function {
	if depth > maxCombineDepth {
		c.Fail(fmt.Errorf("importance: combinator nesting exceeds depth %d", maxCombineDepth))
		return nil
	}
	var k Kind
	c.U8((*uint8)(&k))
	f, err := family(c, k, depth, keep)
	if c.Err != nil {
		return nil
	}
	if err != nil {
		c.Fail(err)
		return nil
	}
	return f
}

func family(c *codec.Codec, kind Kind, depth int, keep bool) (Function, error) {
	switch kind {
	case KindTwoStep:
		var p float64
		var persist, wane time.Duration
		c.F64(&p)
		c.I64((*int64)(&persist))
		c.I64((*int64)(&wane))
		f, err := NewTwoStep(p, persist, wane)
		return built(keep, f, err)
	case KindConstant:
		var p float64
		c.F64(&p)
		f, err := NewConstant(p)
		return built(keep, f, err)
	case KindDirac:
		return Dirac{}, nil
	case KindLinear:
		var p float64
		var expire time.Duration
		c.F64(&p)
		c.I64((*int64)(&expire))
		f, err := NewLinear(p, expire)
		return built(keep, f, err)
	case KindExponential:
		var p float64
		var half, expire time.Duration
		c.F64(&p)
		c.I64((*int64)(&half))
		c.I64((*int64)(&expire))
		f, err := NewExponential(p, half, expire)
		return built(keep, f, err)
	case KindPiecewise:
		points := make([]Point, count(c, 0, pointSize))
		for i := range points {
			c.I64((*int64)(&points[i].Age))
			c.F64(&points[i].Value)
		}
		f, err := NewPiecewise(points)
		return built(keep, f, err)
	case KindMin:
		f, err := NewMin(decodeOperands(c, depth)...)
		return built(keep, f, err)
	case KindProduct:
		f, err := NewProduct(decodeOperands(c, depth)...)
		return built(keep, f, err)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, kind)
	}
}

// built returns what a family's constructor answered, as a Function when
// keep is set and as nil otherwise, so a value that is only checked is
// never boxed.
func built[F Function](keep bool, f F, err error) (Function, error) {
	if err != nil || !keep {
		return nil, err
	}
	return f, nil
}

// decodeOperands reads a combinator's operands, each at least its kind
// byte. They are built even when the combinator is only checked: its
// constructor refuses a nil operand.
func decodeOperands(c *codec.Codec, depth int) []Function {
	fns := make([]Function, count(c, 0, 1))
	for i := range fns {
		if fns[i] = decode(c, depth+1, true); c.Err != nil {
			return nil
		}
	}
	return fns
}
