package wire

import (
	"bytes"
	"testing"
	"unsafe"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// payloadsOf lists the payload fields of a decoded message, a BATCH's subs'
// in sub order.
func payloadsOf(m Message) [][]byte {
	switch m := m.(type) {
	case *Put:
		return [][]byte{m.Payload}
	case *Update:
		return [][]byte{m.Payload}
	case *Replicate:
		return [][]byte{m.Payload}
	case *ObjectMsg:
		return [][]byte{m.Payload}
	case *Batch:
		var out [][]byte
		for _, sub := range m.Subs {
			out = append(out, payloadsOf(sub)...)
		}
		return out
	}
	return nil
}

// within reports whether p's bytes lie inside body's.
func within(body, p []byte) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(body)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	return at >= lo && at+uintptr(len(p)) <= lo+uintptr(len(body))
}

// TestDecodedPayloadAliasesBody pins Decode's aliasing contract: a decoded
// payload is the frame body's own bytes, not a copy, and its capacity ends
// where its bytes do, so that a holder's append reallocates instead of
// overwriting whatever follows it in the frame -- the next sub of a BATCH,
// or the trailers.
func TestDecodedPayloadAliasesBody(t *testing.T) {
	imp := importance.Constant{Level: 0.5}
	put := func(id object.ID, p string) *Put {
		return &Put{ID: id, Owner: "o", Importance: imp, Payload: []byte(p)}
	}
	cases := []struct {
		name string
		msg  Message
		want []string
	}{
		{"PUT", put("a", "put payload"), []string{"put payload"}},
		{"UPDATE", &Update{ID: "u", Owner: "o", Importance: imp, Payload: []byte("update payload")},
			[]string{"update payload"}},
		{"REPLICATE", &Replicate{ID: "r", Owner: "o", Version: 2, Importance: imp, AgeNanos: 5,
			Payload: []byte("replica payload")}, []string{"replica payload"}},
		{"OBJECT (a GET's answer)", &ObjectMsg{ID: "g", Owner: "o", Version: 1, Importance: imp,
			CurrentImportance: 0.5, Payload: []byte("get payload")}, []string{"get payload"}},
		{"BATCH of puts", &Batch{Subs: []Message{put("a", "first"), put("b", "second"), put("c", "third")}},
			[]string{"first", "second", "third"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := AppendSeq(AppendTraceID(mustEncode(t, tc.msg), "trace"), 9)
			sent := bytes.Clone(body)
			m, tr, err := DecodeWithTrailers(body)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			got := payloadsOf(m)
			if len(got) != len(tc.want) {
				t.Fatalf("decoded %d payloads, want %d", len(got), len(tc.want))
			}
			for i, p := range got {
				if string(p) != tc.want[i] {
					t.Errorf("payload %d = %q, want %q", i, p, tc.want[i])
				}
				if !within(body, p) {
					t.Errorf("payload %d is a copy, not a slice of the frame body", i)
				}
				if cap(p) != len(p) {
					t.Errorf("payload %d has cap %d past its len %d", i, cap(p), len(p))
				}
				_ = append(p, 0xFF, 0xFF, 0xFF, 0xFF)
			}
			if !bytes.Equal(body, sent) {
				t.Error("appending to a decoded payload changed the frame body")
			}
			if tr.Trace != "trace" || !tr.HasSeq || tr.Seq != 9 {
				t.Errorf("trailers = %+v after the payloads", tr)
			}
		})
	}
}
