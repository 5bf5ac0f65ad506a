package wire

import (
	"bytes"
	"testing"

	"besteffs/internal/importance"
)

// FuzzDecode is a native fuzz target for the protocol decoder. Seeded with
// the golden corpus (every opcode, every trailer combination); under
// `go test` it runs the seeds, and `go test -fuzz=FuzzDecode ./internal/wire`
// explores further. The decoder must never panic, every successfully
// decoded message must re-encode to the bytes it came from, and a Decoder
// must agree with Decode.
func FuzzDecode(f *testing.F) {
	for _, body := range goldenBodies(f) {
		f.Add(body)
	}
	// Frames of the retired INDEX_DIFF (opcodes 14 and 140) and INDEX (13
	// and 139) generations, as a peer that has not been upgraded may still
	// send them: refused, not misparsed as something newer.
	f.Add([]byte{14, 0x3F, 0xE0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{140, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{13, 0x3F, 0xE0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{139, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})
	// A 42-byte PUT whose importance field nests eight min operators, each
	// claiming 65 535 operands the field cannot hold: refused before any
	// operand list is allocated.
	nested := bytes.Repeat([]byte{byte(importance.KindMin), 0xFF, 0xFF}, 8)
	put := append([]byte{byte(OpPut), 0, 2, 'i', 'd', 0, 0, 0, 0, 0, 0, 0, 0, byte(len(nested))}, nested...)
	f.Add(append(put, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := Decode(body)
		// A connection's Decoder refuses exactly what Decode refuses, with
		// the same error, and decodes the rest to the same message.
		var d Decoder
		dm, _, derr := d.DecodeWithTrailers(body)
		if (err == nil) != (derr == nil) || (err != nil && err.Error() != derr.Error()) {
			t.Fatalf("Decode: %v; a Decoder: %v", err, derr)
		}
		if err != nil {
			return
		}
		requireReencodes(t, body, m)
		if a, b := mustEncode(t, dm), mustEncode(t, m); !bytes.Equal(a, b) {
			t.Fatalf("a Decoder's %v re-encodes to %x, Decode's to %x", dm.Op(), a, b)
		}
	})
}
