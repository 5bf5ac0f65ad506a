package journal

import (
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeRecord: decoding any body never panics, every failure wraps
// ErrCorrupt, and a body that decodes re-encodes to one that decodes to an
// equal record. CI runs it for 10 s; the pinned records seed it.
func FuzzDecodeRecord(f *testing.F) {
	for _, p := range pinnedRecords {
		body, err := hex.DecodeString(strings.ReplaceAll(p.hex, " ", ""))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := decode(body)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		again, err := encode(r)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", r, err)
		}
		r2, err := decode(again)
		if err != nil {
			t.Fatalf("decoding the re-encoded %+v: %v", r, err)
		}
		if !reflect.DeepEqual(r2, r) {
			t.Fatalf("round trip changed the record: %+v, want %+v", r2, r)
		}
	})
}
