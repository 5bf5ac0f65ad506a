package wire

import (
	"errors"
	"math/rand"
	"testing"
)

// TestDecodeNeverPanicsOnMutation is a fuzz-style robustness test: random
// mutations of valid frame bodies must produce either a valid message or an
// error -- never a panic or an out-of-bounds read. Network input is
// attacker-controlled.
func TestDecodeNeverPanicsOnMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(1337))
	seeds := goldenBodies(t)
	for round := 0; round < 20000; round++ {
		seed := seeds[rng.Intn(len(seeds))]
		buf := append([]byte(nil), seed...)
		switch rng.Intn(4) {
		case 0: // flip random bytes
			for k := 0; k < 1+rng.Intn(4); k++ {
				buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
			}
		case 1: // truncate
			buf = buf[:rng.Intn(len(buf))]
		case 2: // extend with junk
			extra := make([]byte, 1+rng.Intn(16))
			rng.Read(extra)
			buf = append(buf, extra...)
		case 3: // flip and truncate
			if len(buf) > 1 {
				buf[rng.Intn(len(buf))] ^= 0xFF
				buf = buf[:1+rng.Intn(len(buf)-1)]
			}
		}
		// Must not panic; errors are fine, successes must re-encode.
		m, err := Decode(buf)
		if err != nil {
			continue
		}
		requireReencodes(t, buf, m)
	}
}

func mustEncode(t *testing.T, m Message) []byte {
	t.Helper()
	b, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode(%v): %v", m.Op(), err)
	}
	return b
}

// TestJournalStyleTruncationSweep decodes every strict prefix of the message
// part of every golden frame: each lacks at least the last byte of some
// field, so each must fail with ErrShort -- never parse, never panic.
func TestJournalStyleTruncationSweep(t *testing.T) {
	for _, tc := range goldenCases() {
		full := mustEncode(t, tc.msg)
		for cut := 0; cut < len(full); cut++ {
			if m, err := Decode(full[:cut]); !errors.Is(err, ErrShort) {
				t.Fatalf("%s cut at %d of %d: Decode = %v, %v; want ErrShort", tc.name, cut, len(full), m, err)
			}
		}
	}
}
