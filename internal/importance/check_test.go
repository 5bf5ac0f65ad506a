package importance

import (
	"bytes"
	"math/rand"
	"testing"

	"besteffs/internal/codec"
)

// TestCheckRefusesWhatFieldRefuses: over random valid encodings of every
// registered kind and every one-byte corruption, truncation and extension of
// them, Check accepts exactly what Field's decoding accepts and fails with
// the same error, and EncodedField keeps exactly the field's bytes.
func TestCheckRefusesWhatFieldRefuses(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	variants := func(enc []byte) [][]byte {
		out := [][]byte{enc, enc[:len(enc)-1], append(bytes.Clone(enc), 0)}
		for i := range enc {
			for _, b := range []byte{0x00, 0x7F, 0xFF, enc[i] ^ 0x40} {
				v := bytes.Clone(enc)
				v[i] = b
				out = append(out, v)
			}
		}
		return out
	}
	checked := 0
	for range 200 {
		enc, err := Encode(randomFunctionDeep(rng, 0))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants(enc) {
			field := append([]byte{byte(len(v) >> 8), byte(len(v))}, v...)
			var f Function
			full := codec.Codec{Buf: field}
			Field(&full, &f)
			var kept []byte
			lazy := codec.Codec{Buf: field}
			EncodedField(&lazy, &kept)
			checkErr := Check(v)
			switch {
			case (full.Err == nil) != (checkErr == nil) || (full.Err != nil && full.Err.Error() != checkErr.Error()):
				t.Fatalf("% x: Field: %v; Check: %v", v, full.Err, checkErr)
			case (full.Err == nil) != (lazy.Err == nil) || (full.Err != nil && full.Err.Error() != lazy.Err.Error()):
				t.Fatalf("% x: Field: %v; EncodedField: %v", v, full.Err, lazy.Err)
			case lazy.Err == nil && (!bytes.Equal(kept, v) || cap(kept) != len(kept)):
				t.Fatalf("% x: EncodedField kept % x (cap %d)", v, kept, cap(kept))
			}
			checked++
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d encodings checked", checked)
	}
}

// TestCheckBuildsNoFlatFamily: checking a two-step, constant, Dirac, linear
// or exponential encoding allocates nothing.
func TestCheckBuildsNoFlatFamily(t *testing.T) {
	for _, f := range []Function{
		TwoStep{Plateau: 0.6, Persist: Day, Wane: Day},
		Constant{Level: 0.2},
		Dirac{},
		Linear{Start: 1, Expire: Day},
		Exponential{Start: 1, HalfLife: Day, Expire: 10 * Day},
	} {
		enc, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := Check(enc); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%v: Check allocates %.0f times", f, n)
		}
	}
}
