package importance

import (
	"errors"
	"testing"
	"time"
)

func TestEncodeDecodeEveryFamily(t *testing.T) {
	tests := []struct {
		name string
		f    Function
		kind Kind
	}{
		{"two step", TwoStep{Plateau: 1, Persist: 15 * Day, Wane: 15 * Day}, KindTwoStep},
		{"constant", Constant{Level: 0.5}, KindConstant},
		{"dirac", Dirac{}, KindDirac},
		{"linear", Linear{Start: 0.9, Expire: 30 * Day}, KindLinear},
		{"exponential", Exponential{Start: 1, HalfLife: 5 * Day, Expire: 60 * Day}, KindExponential},
		{"piecewise", mustPiecewise(t, []Point{{0, 1}, {10 * Day, 0.5}, {20 * Day, 0}}), KindPiecewise},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			buf, err := Encode(tt.f)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if got := Kind(buf[0]); got != tt.kind {
				t.Errorf("kind byte = %v, want %v", got, tt.kind)
			}
			got, n, err := Decode(buf)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if n != len(buf) {
				t.Errorf("Decode consumed %d bytes, want %d", n, len(buf))
			}
			for _, age := range []time.Duration{0, Day, 12 * Day, 25 * Day, 100 * Day} {
				if got.At(age) != tt.f.At(age) {
					t.Errorf("At(%v) changed: %v != %v", age, got.At(age), tt.f.At(age))
				}
			}
		})
	}
}

func mustPiecewise(t *testing.T, pts []Point) Piecewise {
	t.Helper()
	f, err := NewPiecewise(pts)
	if err != nil {
		t.Fatalf("NewPiecewise: %v", err)
	}
	return f
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	valid, err := Encode(TwoStep{Plateau: 1, Persist: Day, Wane: Day})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	tests := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"unknown kind", []byte{0xFF}},
		{"truncated two step", valid[:len(valid)-1]},
		{"truncated header only", valid[:1]},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := Decode(tt.buf); err == nil {
				t.Error("Decode accepted corrupt input")
			}
		})
	}
}

func TestDecodeRejectsInvalidParameters(t *testing.T) {
	// Hand-craft a two-step encoding with plateau 2.0 (out of range):
	// the decoder must re-validate, not trust the wire.
	buf, err := Encode(TwoStep{Plateau: 1, Persist: Day, Wane: Day})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	buf[1] = 0x40 // flips the float64 plateau 1.0 -> 2.0
	if _, _, err := Decode(buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Decode of out-of-range plateau: err = %v, want ErrOutOfRange", err)
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	buf, err := Encode(Constant{Level: 0.25})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	withTrailer := append(buf, 0xAA, 0xBB)
	f, n, err := Decode(withTrailer)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if n != len(buf) {
		t.Errorf("Decode consumed %d bytes, want %d", n, len(buf))
	}
	if f.At(0) != 0.25 {
		t.Errorf("decoded level = %v, want 0.25", f.At(0))
	}
}

func TestEncodeRejectsForeignFunction(t *testing.T) {
	if _, err := Encode(increasing{}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("Encode of foreign type: err = %v, want ErrUnknownKind", err)
	}
}
