package importance

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
)

// TestEncodingPinned pins the byte image of every function family, one
// field a space-separated group: the wire and the journal carry these
// bytes, so a codec change that moves one of them fails here, naming the
// family.
func TestEncodingPinned(t *testing.T) {
	piecewise := mustPiecewise(t, []Point{{0, 1}, {10 * Day, 0.5}, {20 * Day, 0}})
	tests := []struct {
		name string
		f    Function
		hex  string
	}{
		{"twostep", TwoStep{Plateau: 1, Persist: 15 * Day, Wane: 15 * Day}, "01 3ff0000000000000 00049ab483a10000 00049ab483a10000"},
		{"constant", Constant{Level: 0.5}, "02 3fe0000000000000"},
		{"dirac", Dirac{}, "03"},
		{"linear", Linear{Start: 0.9, Expire: 30 * Day}, "04 3feccccccccccccd 0009356907420000"},
		{"exponential", Exponential{Start: 1, HalfLife: 5 * Day, Expire: 60 * Day}, "05 3ff0000000000000 000188e6d68b0000 00126ad20e840000"},
		{"piecewise", piecewise, "06 0003 0000000000000000 3ff0000000000000 000311cdad160000 3fe0000000000000 0006239b5a2c0000 0000000000000000"},
		{"min", mustMin(t, Constant{Level: 0.5}, Linear{Start: 1, Expire: 10 * Day}), "07 0002 02 3fe0000000000000 04 3ff0000000000000 000311cdad160000"},
		{"product", mustProduct(t, TwoStep{Plateau: 0.8, Persist: Day, Wane: 2 * Day}, Dirac{}), "08 0002 01 3fe999999999999a 00004e94914f0000 00009d29229e0000 03"},
		{"min in product", mustProduct(t,
			mustMin(t, Constant{Level: 0.25}, piecewise),
			Exponential{Start: 0.5, HalfLife: Day, Expire: 4 * Day}), "08 0002 07 0002 02 3fd0000000000000 06 0003 0000000000000000 3ff0000000000000 000311cdad160000 3fe0000000000000 0006239b5a2c0000 0000000000000000 05 3fe0000000000000 00004e94914f0000 00013a52453c0000"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Encode(tt.f)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			pinned := strings.ReplaceAll(tt.hex, " ", "")
			if h := hex.EncodeToString(got); h != pinned {
				t.Errorf("Encode = %s, want %s", h, pinned)
			}
			want, err := hex.DecodeString(pinned)
			if err != nil {
				t.Fatal(err)
			}
			f, n, err := Decode(want)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if n != len(want) || !reflect.DeepEqual(f, tt.f) {
				t.Errorf("Decode = %#v (%d of %d bytes), want %#v", f, n, len(want), tt.f)
			}
		})
	}
}

func mustMin(t *testing.T, fns ...Function) Min {
	t.Helper()
	f, err := NewMin(fns...)
	if err != nil {
		t.Fatalf("NewMin: %v", err)
	}
	return f
}

func mustProduct(t *testing.T, fns ...Function) Product {
	t.Helper()
	f, err := NewProduct(fns...)
	if err != nil {
		t.Fatalf("NewProduct: %v", err)
	}
	return f
}
