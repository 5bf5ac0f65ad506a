package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := []byte{1, 2, 3, 4, 5}
	if err := WriteFrame(&buf, body); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if !bytes.Equal(got, body) {
		t.Errorf("frame body = %v, want %v", got, body)
	}
}

func TestFrameEmptyBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, nil); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, err := ReadFrame(&buf)
	if err != nil || len(got) != 0 {
		t.Errorf("empty frame = %v, %v", got, err)
	}
}

func TestReadFrameEOF(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want io.EOF", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte{1, 2, 3}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	trunc := buf.Bytes()[:buf.Len()-1]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated frame accepted")
	}
}

// TestFrameHeaderEveryPath: a frame header written to a plain writer and to
// a buffered one is the same, and is read into the buffer's spare capacity,
// byte by byte from a reader that gives single bytes, or into four bytes of
// its own from any other reader. Every way round trips the frame, and a
// header cut short reads as io.EOF before its first byte and
// io.ErrUnexpectedEOF after it.
func TestFrameHeaderEveryPath(t *testing.T) {
	body := []byte{7, 8, 9}
	var plain, buffered bytes.Buffer
	if err := WriteFrame(struct{ io.Writer }{&plain}, body); err != nil {
		t.Fatalf("WriteFrame to a plain writer: %v", err)
	}
	bw := bufio.NewWriter(&buffered)
	if err := WriteFrame(bw, body); err != nil || bw.Flush() != nil {
		t.Fatalf("WriteFrame to a bufio.Writer: %v", err)
	}
	if !bytes.Equal(plain.Bytes(), buffered.Bytes()) {
		t.Fatalf("the two writers framed % x and % x", plain.Bytes(), buffered.Bytes())
	}
	frame := plain.Bytes()
	readers := map[string]func([]byte) io.Reader{
		"byte reader":  func(b []byte) io.Reader { return bufio.NewReader(bytes.NewReader(b)) },
		"plain reader": func(b []byte) io.Reader { return struct{ io.Reader }{bytes.NewReader(b)} },
	}
	for name, reader := range readers {
		for _, buf := range [][]byte{nil, append(make([]byte, 0, 64), 1, 2)} {
			got, err := AppendFrame(buf, reader(frame))
			if err != nil || !bytes.Equal(got[:len(buf)], buf) || !bytes.Equal(got[len(buf):], body) {
				t.Errorf("%s, %d spare bytes: AppendFrame = % x, %v", name, cap(buf)-len(buf), got, err)
			}
			for cut := range 4 {
				want := io.ErrUnexpectedEOF
				if cut == 0 {
					want = io.EOF
				}
				if _, err := AppendFrame(buf, reader(frame[:cut])); !errors.Is(err, want) {
					t.Errorf("%s, %d spare bytes, header cut at %d: %v, want %v", name, cap(buf)-len(buf), cut, err, want)
				}
			}
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized header err = %v, want ErrFrameTooLarge", err)
	}
	if err := WriteFrame(io.Discard, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized write err = %v, want ErrFrameTooLarge", err)
	}
}

// TestFrameRoundTripSizes crosses ReadFrame's read-ahead bound: a body
// larger than it arrives in pieces and must come back whole, and a body cut
// short anywhere is refused.
func TestFrameRoundTripSizes(t *testing.T) {
	for _, n := range []int{3 << 20, 3, 0} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i * 7)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, body); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", n, err)
		}
		frame := buf.Bytes()
		got, err := ReadFrame(bytes.NewReader(frame))
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("%d-byte frame: got %d bytes, err %v", n, len(got), err)
		}
		if n == 0 {
			continue
		}
		if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-1])); err == nil {
			t.Errorf("%d-byte frame missing its last byte accepted", n)
		}
	}
}

// TestAppendFrameAndEncodeAppend: the frame reader and the encoder append
// behind what a buffer already holds and leave it alone, as a connection
// reading a group of frames into one buffer needs, and produce the bytes
// their nil-buffer cases do.
func TestAppendFrameAndEncodeAppend(t *testing.T) {
	prefix := []byte("held")
	msgs := []Message{&Get{ID: "a"}, &Put{ID: "b", Importance: importance.Constant{Level: 0.5},
		Payload: bytes.Repeat([]byte{7}, 3<<20)}, &Stat{}}
	var stream bytes.Buffer
	out := append([]byte(nil), prefix...)
	var want [][]byte
	for _, m := range msgs {
		body := mustEncode(t, m)
		at := len(out)
		var err error
		if out, err = AppendEncode(out, m); err != nil {
			t.Fatalf("AppendEncode(%v): %v", m.Op(), err)
		}
		if !bytes.Equal(out[at:], body) || !bytes.Equal(out[:len(prefix)], prefix) {
			t.Errorf("AppendEncode(%v) behind %d bytes differs from Encode, or moved them", m.Op(), at)
		}
		if err := WriteFrame(&stream, body); err != nil {
			t.Fatal(err)
		}
		want = append(want, body)
	}
	in := append([]byte(nil), prefix...)
	for i := range msgs {
		at := len(in)
		var err error
		if in, err = AppendFrame(in, &stream); err != nil {
			t.Fatalf("AppendFrame %d: %v", i, err)
		}
		if !bytes.Equal(in[at:], want[i]) {
			t.Errorf("frame %d: %d bytes read, want %d", i, len(in)-at, len(want[i]))
		}
	}
	if !bytes.Equal(in[:len(prefix)], prefix) {
		t.Error("AppendFrame changed the bytes it appended behind")
	}
	if _, err := AppendFrame(in, &stream); !errors.Is(err, io.EOF) {
		t.Errorf("after the last frame: %v, want io.EOF", err)
	}
}

// TestHostileFrameLengthAllocatesLittle: a header claiming MaxFrameSize and
// then nothing must cost the reader about what arrived, not what was
// claimed -- a server reads one such header per connection.
func TestHostileFrameLengthAllocatesLittle(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize)
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil {
			t.Fatal("header without a body read as a frame")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 2<<20 {
		t.Errorf("a %d-byte claim followed by EOF allocated %d bytes per read, want < 2 MiB", MaxFrameSize, per)
	}
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	body, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode(%v): %v", m.Op(), err)
	}
	got, err := Decode(body)
	if err != nil {
		t.Fatalf("Decode(%v): %v", m.Op(), err)
	}
	return got
}

func TestMessageRoundTrips(t *testing.T) {
	day := importance.Day
	twoStep := importance.TwoStep{Plateau: 0.5, Persist: 10 * day, Wane: 20 * day}
	tests := []Message{
		&Put{
			ID: "cs101/l1", Owner: "prof", Class: object.ClassUniversity,
			Version: 2, Importance: twoStep, Payload: []byte("video-bytes"),
		},
		&Get{ID: "a/b"},
		&Delete{ID: "a/b"},
		&Stat{},
		&Probe{Size: 1 << 30, Importance: importance.Constant{Level: 1}},
		&Density{},
		&List{},
		&PutResult{Admitted: true, Boundary: 0.25, Reason: 0, Evicted: []object.ID{"x", "y"}},
		&PutResult{Admitted: false, Boundary: 0.9, Reason: 2},
		&ObjectMsg{
			ID: "o", Owner: "u", Class: object.ClassStudent, Version: 1,
			Importance: twoStep, AgeNanos: int64(3 * time.Hour),
			CurrentImportance: 0.5, Payload: []byte{0, 1, 2},
		},
		&OK{},
		&StatResult{Capacity: 80 << 30, Used: 1 << 20, Objects: 42, Density: 0.8369,
			Shards: []ShardStat{
				{Capacity: 40 << 30, Used: 1 << 19, Objects: 21, Density: 0.91, Boundary: 0.125},
				{Capacity: 40 << 30, Used: 1 << 19, Objects: 21, Density: 0.77, Boundary: 0},
			}},
		&StatResult{Capacity: 1 << 20, Used: 4096, Objects: 3, Density: 0.25,
			Shards: []ShardStat{{Capacity: 1 << 20, Used: 4096, Objects: 3, Density: 0.25, Boundary: 0.5}}},
		&ProbeResult{Admissible: true, Boundary: 0.3},
		&DensityResult{Density: 0.5},
		&ListResult{IDs: []object.ID{"a", "b", "c"}},
		&ListResult{},
		&ErrorMsg{Code: CodeNotFound, Text: "nope"},
		&Rejuvenate{ID: "o", Importance: twoStep},
		&RejuvenateResult{Version: 3},
		&Update{ID: "o", Owner: "u", Class: object.ClassStudent,
			Importance: twoStep, Payload: []byte("v2")},
	}
	for _, m := range tests {
		t.Run(m.Op().String(), func(t *testing.T) {
			got := roundTrip(t, m)
			if got.Op() != m.Op() {
				t.Fatalf("op = %v, want %v", got.Op(), m.Op())
			}
			// Importance functions do not compare with ==; compare via
			// re-encoding instead of reflect on those messages.
			a, err := Encode(m)
			if err != nil {
				t.Fatalf("re-encode original: %v", err)
			}
			b, err := Encode(got)
			if err != nil {
				t.Fatalf("re-encode decoded: %v", err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("round trip changed encoding:\n%v\n%v", a, b)
			}
		})
	}
}

func TestDecodeErrors(t *testing.T) {
	valid, err := Encode(&Put{
		ID: "x", Importance: importance.Dirac{}, Payload: []byte("p"),
	})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	tests := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"unknown op", []byte{0xEE}},
		{"invalid op zero", []byte{0}},
		{"truncated put", valid[:len(valid)-1]},
		{"put header only", valid[:1]},
		{"garbage string length", []byte{byte(OpGet), 0xFF, 0xFF, 'a'}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.body); err == nil {
				t.Error("corrupt body accepted")
			}
		})
	}
}

func TestDecodePutRejectsBadImportance(t *testing.T) {
	m := &Put{ID: "x", Importance: importance.TwoStep{Plateau: 1, Persist: 1, Wane: 1}, Payload: []byte("p")}
	body, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Find and corrupt the plateau float (after id "x" and owner "",
	// class, version and the 2-byte importance length: the first
	// importance byte is the kind, then the plateau).
	idx := bytes.IndexByte(body, byte(importance.KindTwoStep))
	if idx < 0 {
		t.Fatal("kind byte not found")
	}
	body[idx+1] = 0x40 // plateau 1.0 -> 2.0
	if _, err := Decode(body); err == nil {
		t.Error("out-of-range importance accepted from the wire")
	}
}

func TestErrorMsgIsError(t *testing.T) {
	var e error = &ErrorMsg{Code: CodeInternal, Text: "boom"}
	if e.Error() == "" {
		t.Error("empty error text")
	}
}

func TestOpString(t *testing.T) {
	ops := []Op{OpPut, OpGet, OpDelete, OpStat, OpProbe, OpDensity, OpList,
		OpPutResult, OpObject, OpOK, OpStatResult, OpProbeResult,
		OpDensityResult, OpListResult, OpError}
	seen := make(map[string]bool)
	for _, op := range ops {
		s := op.String()
		if s == "" || seen[s] {
			t.Errorf("bad or duplicate op name %q", s)
		}
		seen[s] = true
	}
	if Op(200).String() != "OP(200)" {
		t.Errorf("unknown op = %q", Op(200).String())
	}
}

func TestPutResultReflectEquality(t *testing.T) {
	m := &PutResult{Admitted: true, Boundary: 0.5, Evicted: []object.ID{"a"}}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip = %+v, want %+v", got, m)
	}
}
