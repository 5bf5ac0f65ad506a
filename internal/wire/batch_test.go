package wire

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// appendSub appends one hand-crafted batch sub: its u32 length, then the body.
func appendSub(dst, body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(dst, uint32(len(body))), body...)
}

func TestBatchRoundTrip(t *testing.T) {
	m := &Batch{Subs: []Message{
		&Put{ID: "a", Owner: "u", Class: object.ClassUniversity, Version: 1,
			Importance: importance.Constant{Level: 0.7}, Payload: []byte("bytes")},
		&Get{ID: "b"},
		&Delete{ID: "c"},
		&Stat{},
	}}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(got, m) {
		t.Errorf("batch round trip = %#v, want %#v", got, m)
	}
}

func TestBatchResultRoundTrip(t *testing.T) {
	m := &BatchResult{Results: []Message{
		&PutResult{Admitted: true, Boundary: 0.2, Evicted: []object.ID{"x"}},
		&ErrorMsg{Code: CodeDuplicate, Text: "b"},
		&OK{},
	}}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(got, m) {
		t.Errorf("batch result round trip = %#v, want %#v", got, m)
	}
}

func TestBatchRejectsEmpty(t *testing.T) {
	if _, err := Encode(&Batch{}); err == nil {
		t.Error("empty batch encoded")
	}
	// Crafted frame: opcode + count 0.
	if _, err := Decode([]byte{byte(OpBatch), 0, 0}); err == nil {
		t.Error("empty batch decoded")
	}
}

func TestBatchRejectsNesting(t *testing.T) {
	inner := &Batch{Subs: []Message{&Stat{}}}
	if _, err := Encode(&Batch{Subs: []Message{inner}}); !errors.Is(err, ErrBatchNested) {
		t.Errorf("nested encode err = %v, want ErrBatchNested", err)
	}
	// Craft the nested frame by hand, since Encode refuses to produce it:
	// a batch whose single sub is itself a batch.
	innerBody, err := Encode(inner)
	if err != nil {
		t.Fatalf("Encode(inner): %v", err)
	}
	crafted := []byte{byte(OpBatch), 0, 1}
	crafted = appendSub(crafted, innerBody)
	if _, err := Decode(crafted); !errors.Is(err, ErrBatchNested) {
		t.Errorf("nested decode err = %v, want ErrBatchNested", err)
	}
}

func TestBatchRejectsOversizedCount(t *testing.T) {
	// Count beyond MaxBatchSubs must be rejected before allocation.
	body := []byte{byte(OpBatch), 0xFF, 0xFF}
	if _, err := Decode(body); err == nil {
		t.Error("oversized batch count accepted")
	}
}

func TestBatchRejectsSubTrailingBytes(t *testing.T) {
	sub, err := Encode(&Stat{})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	crafted := []byte{byte(OpBatch), 0, 1}
	crafted = appendSub(crafted, append(sub, 0xEE))
	if _, err := Decode(crafted); err == nil {
		t.Error("sub with trailing bytes accepted")
	}
}

func TestSeqTrailerRoundTrip(t *testing.T) {
	body, err := Encode(&Get{ID: "x"})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	body = AppendSeq(body, 12345)
	m, tr, err := DecodeWithTrailers(body)
	if err != nil {
		t.Fatalf("DecodeWithTrailers: %v", err)
	}
	if m.(*Get).ID != "x" {
		t.Errorf("message = %#v", m)
	}
	if !tr.HasSeq || tr.Seq != 12345 {
		t.Errorf("seq = %+v, want 12345", tr)
	}
	if tr.Trace != "" {
		t.Errorf("trace = %q, want empty", tr.Trace)
	}
}

func TestSeqZeroIsValid(t *testing.T) {
	body, _ := Encode(&Stat{})
	_, tr, err := DecodeWithTrailers(AppendSeq(body, 0))
	if err != nil || !tr.HasSeq || tr.Seq != 0 {
		t.Errorf("seq zero = %+v, %v; want HasSeq with Seq 0", tr, err)
	}
}

func TestTrailersInEitherOrder(t *testing.T) {
	base, _ := Encode(&Stat{})
	traceFirst := AppendSeq(AppendTraceID(base, "tr-1"), 7)
	seqFirst := AppendTraceID(AppendSeq(append([]byte(nil), base...), 9), "tr-2")
	for _, tc := range []struct {
		name  string
		body  []byte
		trace TraceID
		seq   uint64
	}{
		{"trace-then-seq", traceFirst, "tr-1", 7},
		{"seq-then-trace", seqFirst, "tr-2", 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, tr, err := DecodeWithTrailers(tc.body)
			if err != nil {
				t.Fatalf("DecodeWithTrailers: %v", err)
			}
			if tr.Trace != tc.trace || !tr.HasSeq || tr.Seq != tc.seq {
				t.Errorf("trailers = %+v, want trace %q seq %d", tr, tc.trace, tc.seq)
			}
		})
	}
}

func TestJunkAfterTrailersDiscardsAll(t *testing.T) {
	// One malformed byte after well-formed trailers must discard everything:
	// partially honored trailers would make the junk-suffix compatibility
	// contract ambiguous.
	body, _ := Encode(&Stat{})
	body = AppendTraceID(body, "tr")
	body = AppendSeq(body, 3)
	body = append(body, 0x00)
	m, tr, err := DecodeWithTrailers(body)
	if err != nil || m.Op() != OpStat {
		t.Fatalf("decode = %v, %v", m, err)
	}
	if tr.Trace != "" || tr.HasSeq {
		t.Errorf("trailers = %+v, want zero", tr)
	}
}

func TestTruncatedSeqTrailerDiscarded(t *testing.T) {
	body, _ := Encode(&Stat{})
	body = append(body, seqMagic, 1, 2, 3) // needs 8 bytes of sequence
	_, tr, err := DecodeWithTrailers(body)
	if err != nil || tr.HasSeq {
		t.Errorf("trailers = %+v, %v; want none", tr, err)
	}
}

func TestLegacyDecodeIgnoresSeqTrailer(t *testing.T) {
	body, _ := Encode(&Get{ID: "y"})
	m, err := Decode(AppendSeq(body, 1))
	if err != nil || m.(*Get).ID != "y" {
		t.Errorf("legacy decode = %v, %v", m, err)
	}
}
