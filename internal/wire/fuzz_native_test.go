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
