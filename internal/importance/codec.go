package importance

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
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

// String returns the lower-case family name used by the spec syntax.
func (k Kind) String() string {
	switch k {
	case KindTwoStep:
		return "twostep"
	case KindConstant:
		return "constant"
	case KindDirac:
		return "dirac"
	case KindLinear:
		return "linear"
	case KindExponential:
		return "exp"
	case KindPiecewise:
		return "piecewise"
	case KindMin:
		return "min"
	case KindProduct:
		return "product"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(k))
	}
}

// Codec errors.
var (
	// ErrUnknownKind reports an unrecognized wire kind.
	ErrUnknownKind = errors.New("importance: unknown function kind")
	// ErrShortBuffer reports a truncated encoding.
	ErrShortBuffer = errors.New("importance: short buffer")
)

// KindOf returns the wire kind of a concrete function, or KindInvalid for
// foreign implementations of Function.
func KindOf(f Function) Kind {
	switch f.(type) {
	case TwoStep:
		return KindTwoStep
	case Constant:
		return KindConstant
	case Dirac:
		return KindDirac
	case Linear:
		return KindLinear
	case Exponential:
		return KindExponential
	case Piecewise:
		return KindPiecewise
	case Min:
		return KindMin
	case Product:
		return KindProduct
	default:
		return KindInvalid
	}
}

// AppendEncode appends the compact binary encoding of f to dst and returns
// the extended slice. Only the function families defined in this package can
// be encoded. The layout is one kind byte followed by the family parameters
// as big-endian fixed-width fields (float64 levels, int64 nanosecond
// durations, uint16 point counts).
func AppendEncode(dst []byte, f Function) ([]byte, error) {
	switch f := f.(type) {
	case TwoStep:
		dst = append(dst, byte(KindTwoStep))
		dst = appendFloat(dst, f.Plateau)
		dst = appendDuration(dst, f.Persist)
		dst = appendDuration(dst, f.Wane)
		return dst, nil
	case Constant:
		dst = append(dst, byte(KindConstant))
		return appendFloat(dst, f.Level), nil
	case Dirac:
		return append(dst, byte(KindDirac)), nil
	case Linear:
		dst = append(dst, byte(KindLinear))
		dst = appendFloat(dst, f.Start)
		return appendDuration(dst, f.Expire), nil
	case Exponential:
		dst = append(dst, byte(KindExponential))
		dst = appendFloat(dst, f.Start)
		dst = appendDuration(dst, f.HalfLife)
		return appendDuration(dst, f.Expire), nil
	case Piecewise:
		if len(f.points) > math.MaxUint16 {
			return nil, fmt.Errorf("importance: piecewise function with %d points exceeds encoding limit", len(f.points))
		}
		dst = append(dst, byte(KindPiecewise))
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.points)))
		for _, p := range f.points {
			dst = appendDuration(dst, p.Age)
			dst = appendFloat(dst, p.Value)
		}
		return dst, nil
	case Min:
		return appendCombined(dst, KindMin, f.fns)
	case Product:
		return appendCombined(dst, KindProduct, f.fns)
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnknownKind, f)
	}
}

// appendCombined encodes a combinator: kind byte, uint16 operand count,
// then each operand's encoding in order.
func appendCombined(dst []byte, kind Kind, fns []Function) ([]byte, error) {
	if len(fns) > math.MaxUint16 {
		return nil, fmt.Errorf("importance: %s with %d operands exceeds encoding limit", kind, len(fns))
	}
	dst = append(dst, byte(kind))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(fns)))
	for _, f := range fns {
		var err error
		dst, err = AppendEncode(dst, f)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
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
	return decode(buf, 0)
}

func decode(buf []byte, depth int) (Function, int, error) {
	if depth > maxCombineDepth {
		return nil, 0, fmt.Errorf("importance: combinator nesting exceeds depth %d", maxCombineDepth)
	}
	if len(buf) == 0 {
		return nil, 0, ErrShortBuffer
	}
	kind, n := Kind(buf[0]), 1
	switch kind {
	case KindTwoStep:
		p, n, err := takeFloat(buf, n)
		if err != nil {
			return nil, 0, err
		}
		persist, n, err := takeDuration(buf, n)
		if err != nil {
			return nil, 0, err
		}
		wane, n, err := takeDuration(buf, n)
		if err != nil {
			return nil, 0, err
		}
		f, err := NewTwoStep(p, persist, wane)
		if err != nil {
			return nil, 0, err
		}
		return f, n, nil
	case KindConstant:
		p, n, err := takeFloat(buf, n)
		if err != nil {
			return nil, 0, err
		}
		f, err := NewConstant(p)
		if err != nil {
			return nil, 0, err
		}
		return f, n, nil
	case KindDirac:
		return Dirac{}, n, nil
	case KindLinear:
		p, n, err := takeFloat(buf, n)
		if err != nil {
			return nil, 0, err
		}
		expire, n, err := takeDuration(buf, n)
		if err != nil {
			return nil, 0, err
		}
		f, err := NewLinear(p, expire)
		if err != nil {
			return nil, 0, err
		}
		return f, n, nil
	case KindExponential:
		p, n, err := takeFloat(buf, n)
		if err != nil {
			return nil, 0, err
		}
		half, n, err := takeDuration(buf, n)
		if err != nil {
			return nil, 0, err
		}
		expire, n, err := takeDuration(buf, n)
		if err != nil {
			return nil, 0, err
		}
		f, err := NewExponential(p, half, expire)
		if err != nil {
			return nil, 0, err
		}
		return f, n, nil
	case KindPiecewise:
		if len(buf) < n+2 {
			return nil, 0, ErrShortBuffer
		}
		count := int(binary.BigEndian.Uint16(buf[n:]))
		n += 2
		if count > (len(buf)-n)/pointSize {
			return nil, 0, ErrShortBuffer
		}
		points := make([]Point, 0, count)
		for i := 0; i < count; i++ {
			var (
				age time.Duration
				v   float64
				err error
			)
			age, n, err = takeDuration(buf, n)
			if err != nil {
				return nil, 0, err
			}
			v, n, err = takeFloat(buf, n)
			if err != nil {
				return nil, 0, err
			}
			points = append(points, Point{Age: age, Value: v})
		}
		f, err := NewPiecewise(points)
		if err != nil {
			return nil, 0, err
		}
		return f, n, nil
	case KindMin, KindProduct:
		fns, n, err := decodeOperands(buf, n, depth)
		if err != nil {
			return nil, 0, err
		}
		if kind == KindMin {
			f, err := NewMin(fns...)
			if err != nil {
				return nil, 0, err
			}
			return f, n, nil
		}
		f, err := NewProduct(fns...)
		if err != nil {
			return nil, 0, err
		}
		return f, n, nil
	default:
		return nil, 0, fmt.Errorf("%w: %d", ErrUnknownKind, kind)
	}
}

// decodeOperands parses a combinator's operand list starting at buf[n].
func decodeOperands(buf []byte, n, depth int) ([]Function, int, error) {
	if len(buf) < n+2 {
		return nil, 0, ErrShortBuffer
	}
	count := int(binary.BigEndian.Uint16(buf[n:]))
	n += 2
	if count > len(buf)-n { // every operand takes at least its kind byte
		return nil, 0, ErrShortBuffer
	}
	fns := make([]Function, 0, count)
	for i := 0; i < count; i++ {
		f, used, err := decode(buf[n:], depth+1)
		if err != nil {
			return nil, 0, err
		}
		n += used
		fns = append(fns, f)
	}
	return fns, n, nil
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendDuration(dst []byte, d time.Duration) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(d))
}

func takeFloat(buf []byte, n int) (float64, int, error) {
	if len(buf) < n+8 {
		return 0, 0, ErrShortBuffer
	}
	return math.Float64frombits(binary.BigEndian.Uint64(buf[n:])), n + 8, nil
}

func takeDuration(buf []byte, n int) (time.Duration, int, error) {
	if len(buf) < n+8 {
		return 0, 0, ErrShortBuffer
	}
	return time.Duration(binary.BigEndian.Uint64(buf[n:])), n + 8, nil
}
