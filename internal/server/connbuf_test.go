package server

import (
	"bufio"
	"bytes"
	"testing"

	"besteffs/internal/wire"
)

// Every test of this package runs with released connection buffers
// poisoned: a payload the server held as a slice of a connection's buffer
// past its group's flush then reads as 0xDB bytes, which the byte-exact
// reads of the *OverTCP tests, and of every other test that puts and gets
// over a connection, catch.
func init() { poisonReleased = true }

// TestCoalesceCutsBodiesFromOneBuffer: the frames of a group land in the
// connection's one buffer, behind the first, and each body is cut with no
// capacity past its bytes, however often appending moved the buffer.
func TestCoalesceCutsBodiesFromOneBuffer(t *testing.T) {
	s := &Server{maxBatchSubs: wire.MaxBatchSubs}
	var stream bytes.Buffer
	var want [][]byte
	for i := 0; i < 5; i++ {
		body := bytes.Repeat([]byte{byte('a' + i)}, 1000*(i+1))
		if err := wire.WriteFrame(&stream, body); err != nil {
			t.Fatal(err)
		}
		want = append(want, body)
	}
	// The reader's first fill takes in all five frames, as a pipelined
	// burst does; the buffer starts too small, so appending moves it.
	br := bufio.NewReaderSize(&stream, 64<<10)
	first, err := wire.AppendFrame(make([]byte, 0, 16), br)
	if err != nil {
		t.Fatal(err)
	}
	buf, bodies := s.coalesce(br, first, nil)
	if len(bodies) != len(want) {
		t.Fatalf("coalesced %d frames, want %d", len(bodies), len(want))
	}
	at := 0
	for i, b := range bodies {
		if !bytes.Equal(b, want[i]) {
			t.Errorf("body %d: %d bytes, not the frame sent", i, len(b))
		}
		if cap(b) != len(b) {
			t.Errorf("body %d: cap %d past its len %d", i, cap(b), len(b))
		}
		if &b[0] != &buf[at] {
			t.Errorf("body %d does not lie at offset %d of the returned buffer", i, at)
		}
		at += len(b)
	}
}

// TestReleaseBufferKeepsOnlySmallBuffers: a buffer a group grew past
// maxIdleBuffer is let go; a smaller one comes back empty for the next
// group, and poisoned while the tests run.
func TestReleaseBufferKeepsOnlySmallBuffers(t *testing.T) {
	if b := releaseBuffer(make([]byte, 10, maxIdleBuffer+1)); b != nil {
		t.Errorf("a %d-byte buffer was kept", maxIdleBuffer+1)
	}
	small := []byte("payload")
	b := releaseBuffer(small)
	if len(b) != 0 || cap(b) != cap(small) {
		t.Errorf("released small buffer: len %d cap %d, want 0 and %d", len(b), cap(b), cap(small))
	}
	if !bytes.Equal(small, bytes.Repeat([]byte{0xDB}, len(small))) {
		t.Errorf("released buffer reads %q, not poison", small)
	}
}
