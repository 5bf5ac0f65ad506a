package codec

import (
	"encoding/hex"
	"errors"
	"math"
	"strings"
	"testing"
)

type sample struct {
	u8  uint8
	u16 uint16
	u32 uint32
	u64 uint64
	i64 int64
	f64 float64
	b   bool
	s   string
	p   []byte
}

func (v *sample) fields(c *Codec) {
	c.U8(&v.u8)
	c.U16(&v.u16)
	c.U32(&v.u32)
	c.U64(&v.u64)
	c.I64(&v.i64)
	c.F64(&v.f64)
	c.Bool(&v.b)
	c.Str(&v.s)
	c.Bytes(&v.p)
}

// TestPrimitivesPinned pins each primitive's bytes, one field a
// space-separated group, and decodes them back.
func TestPrimitivesPinned(t *testing.T) {
	in := sample{1, 0x0203, 0x04050607, 0x08090a0b0c0d0e0f, -2, 0.5, true, "hi", []byte{0xee}}
	const pinned = "01 0203 04050607 08090a0b0c0d0e0f fffffffffffffffe 3fe0000000000000 01 0002 6869 00000001 ee"
	enc := Codec{Enc: true}
	in.fields(&enc)
	if enc.Err != nil {
		t.Fatal(enc.Err)
	}
	want := strings.ReplaceAll(pinned, " ", "")
	if got := hex.EncodeToString(enc.Buf); got != want {
		t.Fatalf("encoded %s, want %s", got, want)
	}
	var out sample
	dec := Codec{Buf: enc.Buf}
	out.fields(&dec)
	if dec.Err != nil || dec.Off != len(enc.Buf) {
		t.Fatalf("decode: err %v, read %d of %d bytes", dec.Err, dec.Off, len(enc.Buf))
	}
	if out.u64 != in.u64 || out.i64 != in.i64 || out.f64 != in.f64 || !out.b || out.s != in.s ||
		string(out.p) != string(in.p) || cap(out.p) != len(out.p) {
		t.Errorf("decoded %+v, want %+v with the payload's capacity cut", out, in)
	}
	// Every prefix is short, and the first failure sticks.
	for n := range enc.Buf {
		var v sample
		c := Codec{Buf: enc.Buf[:n]}
		v.fields(&c)
		if !errors.Is(c.Err, ErrShort) {
			t.Errorf("%d-byte prefix: err %v, want ErrShort", n, c.Err)
		}
	}
}

func TestLimits(t *testing.T) {
	c := Codec{Enc: true}
	long := strings.Repeat("x", math.MaxUint16+1)
	c.Str(&long)
	if !errors.Is(c.Err, ErrTooLong) || len(c.Buf) != 0 {
		t.Errorf("65536-byte string: err %v, %d bytes written", c.Err, len(c.Buf))
	}

	c = Codec{Enc: true}
	c.U16(new(uint16))
	copy(c.extend(3), "abc")
	c.Backfill16(0)
	if got := hex.EncodeToString(c.Buf); got != "0003616263" || c.Err != nil {
		t.Errorf("back-filled %s (err %v), want 0003616263", got, c.Err)
	}
	c.extend(math.MaxUint16)
	c.Backfill16(0)
	if c.Err == nil {
		t.Error("a field past 65535 bytes back-filled its u16 length")
	}

	d := Codec{Buf: make([]byte, 31)}
	if !d.Fits(15, 2) || d.Fits(16, 2) || !errors.Is(d.Err, ErrShort) {
		t.Errorf("31 bytes: Fits(15, 2) and not Fits(16, 2), got err %v", d.Err)
	}
}
