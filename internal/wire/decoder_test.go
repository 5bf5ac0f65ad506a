package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// raceEnabled is set under -race (race_test.go), whose instrumentation
// allocates on its own account.
var raceEnabled bool

// decoderGroup is one group of request frames: a PUT, a BATCH of puts
// around a GET and a DELETE, another BATCH and a STAT, each with trailers.
func decoderGroup(t *testing.T, tag string) [][]byte {
	t.Helper()
	imp := importance.TwoStep{Plateau: 0.6, Persist: importance.Day, Wane: importance.Day}
	put := func(i int) *Put {
		return &Put{ID: object.ID(fmt.Sprintf("%s-%d", tag, i)), Owner: "o", Class: object.ClassStudent,
			Version: uint32(i), Importance: imp, Payload: []byte(fmt.Sprintf("payload %s %d", tag, i))}
	}
	batch := func(from, n int) *Batch {
		b := &Batch{}
		for i := from; i < from+n; i++ {
			b.Subs = append(b.Subs, put(i))
		}
		b.Subs = append(b.Subs, &Get{ID: "g"}, &Delete{ID: "d"})
		return b
	}
	var frames [][]byte
	for i, m := range []Message{put(0), batch(1, 40), batch(41, 3), &Stat{}} {
		frames = append(frames, AppendSeq(AppendTraceID(mustEncode(t, m), TraceID("trace-"+tag)), uint64(i)))
	}
	return frames
}

// TestDecoderMatchesDecode: a Decoder decodes every frame of a group to what
// DecodeWithTrailers does, message and trailers, and a message stays intact
// while later frames of its group are decoded. After Reset the next group
// decodes the same way, and once a group has grown the storage, the next
// one decodes into what it used.
func TestDecoderMatchesDecode(t *testing.T) {
	var d Decoder
	var firstPut *Put
	for _, tag := range []string{"one", "two", "three"} {
		frames := decoderGroup(t, tag)
		got := make([]Message, len(frames))
		for i, body := range frames {
			m, tr, err := d.DecodeWithTrailers(body)
			if err != nil {
				t.Fatalf("group %s frame %d: %v", tag, i, err)
			}
			if want := parseTrailers(body[len(mustEncode(t, m)):]); tr != want {
				t.Errorf("group %s frame %d: trailers %+v, want %+v", tag, i, tr, want)
			}
			got[i] = m
		}
		for i, body := range frames {
			want, _, err := DecodeWithTrailers(body)
			if err != nil {
				t.Fatalf("DecodeWithTrailers: %v", err)
			}
			if a, b := mustEncode(t, got[i]), mustEncode(t, want); !bytes.Equal(a, b) {
				t.Errorf("group %s frame %d: the Decoder's %v re-encodes to\n%x\nwant\n%x", tag, i, got[i].Op(), a, b)
			}
		}
		p, ok := got[0].(*Put)
		if !ok {
			t.Fatalf("group %s: frame 0 decoded to %T", tag, got[0])
		}
		want, err := importance.Encode(importance.TwoStep{Plateau: 0.6, Persist: importance.Day, Wane: importance.Day})
		if err != nil {
			t.Fatal(err)
		}
		if p.Importance != nil || !bytes.Equal(p.ImportanceEncoding(), want) || !within(frames[0], p.ImportanceEncoding()) {
			t.Errorf("group %s: the PUT holds %v and the encoding % x, want no function and % x from its frame",
				tag, p.Importance, p.ImportanceEncoding(), want)
		}
		if tag == "two" {
			firstPut = p
		} else if tag == "three" && p != firstPut {
			t.Errorf("group %s: the PUT was not decoded into the storage the first group's used", tag)
		}
		d.Reset()
	}
}

// TestDecoderKeepsBatchesAndPuts: once a Decoder has decoded a group, the
// next group of the same shape allocates nothing for its PUT and BATCH
// messages or their importance functions: what remains is each put's ID.
func TestDecoderKeepsBatchesAndPuts(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	frames := decoderGroup(t, "g")
	var d Decoder
	group := func() {
		for _, body := range frames {
			if _, _, err := d.DecodeWithTrailers(body); err != nil {
				t.Fatal(err)
			}
		}
		d.Reset()
	}
	group()
	// 44 puts' IDs; a GET and a DELETE message in each batch (their one-byte
	// IDs, like the STAT, cost nothing); and each frame's trace ID.
	const puts, others = 44, 2*2 + 4
	if got := testing.AllocsPerRun(20, group); got > puts+others {
		t.Errorf("a group allocates %.0f times, want at most %d", got, puts+others)
	}
}

// TestDecoderRefusesHostileFunctions: a PUT, alone or as a BATCH sub, whose
// function is out of range or rises with age is refused by a Decoder with
// the error Decode refuses it with, though the Decoder builds no function.
func TestDecoderRefusesHostileFunctions(t *testing.T) {
	put := &Put{ID: "x", Importance: importance.Linear{Start: 1, Expire: importance.Day}, Payload: []byte("p")}
	for _, tc := range []struct {
		name string
		msg  Message
	}{
		{"PUT", put},
		{"BATCH sub", &Batch{Subs: []Message{&Get{ID: "g"}, put}}},
	} {
		body := mustEncode(t, tc.msg)
		at := bytes.LastIndexByte(body, byte(importance.KindLinear))
		for _, bad := range []struct {
			name  string
			start float64
		}{{"out of range", 1.5}, {"negative", -0.25}} {
			hostile := bytes.Clone(body)
			binary.BigEndian.PutUint64(hostile[at+1:], math.Float64bits(bad.start))
			_, want := Decode(hostile)
			var d Decoder
			_, _, got := d.DecodeWithTrailers(hostile)
			if !errors.Is(want, importance.ErrOutOfRange) || got == nil || got.Error() != want.Error() {
				t.Errorf("%s, %s start: a Decoder says %v, Decode %v", tc.name, bad.name, got, want)
			}
		}
	}
	// A piecewise function that rises with age.
	rising := []byte{byte(importance.KindPiecewise), 0, 2}
	rising = binary.BigEndian.AppendUint64(rising, 0)
	rising = binary.BigEndian.AppendUint64(rising, math.Float64bits(0.25))
	rising = binary.BigEndian.AppendUint64(rising, uint64(importance.Day))
	rising = binary.BigEndian.AppendUint64(rising, math.Float64bits(0.75))
	body := []byte{byte(OpPut), 0, 1, 'x', 0, 0, 0, 0, 0, 0, 0, 0, byte(len(rising))}
	body = append(append(body, rising...), 0, 0, 0, 1, 'p')
	_, want := Decode(body)
	var d Decoder
	_, _, got := d.DecodeWithTrailers(body)
	if want == nil || !errors.Is(want, importance.ErrNotMonotone) || got == nil || got.Error() != want.Error() {
		t.Errorf("a rising piecewise function: a Decoder says %v, Decode %v", got, want)
	}
}
