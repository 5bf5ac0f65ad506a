package wire

import "testing"

// FuzzDecode is a native fuzz target for the protocol decoder. Seeded with
// the golden corpus (every opcode, every trailer combination); under
// `go test` it runs the seeds, and `go test -fuzz=FuzzDecode ./internal/wire`
// explores further. The decoder must never panic and every successfully
// decoded message must re-encode to the bytes it came from.
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

	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := Decode(body)
		if err != nil {
			return
		}
		requireReencodes(t, body, m)
	})
}
