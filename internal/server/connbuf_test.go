package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"testing"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/wire"
)

// Every test of this package runs with released connection buffers
// poisoned: a payload the server held as a slice of a connection's buffer
// past its group's flush then reads as 0xDB bytes, which the byte-exact
// reads of the *OverTCP tests, and of every other test that puts and gets
// over a connection, catch.
func init() { poisonReleased = true }

// TestCoalesceCutsBodiesFromOneBuffer: the whole frames at the front of the
// connection's buffer are the group, each body cut where it lies with no
// capacity past its bytes; a frame not yet whole behind them is left for
// the next group.
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
	whole := stream.Len()
	if err := wire.WriteFrame(&stream, []byte("the next group's")); err != nil {
		t.Fatal(err)
	}
	buf := stream.Bytes()[:stream.Len()-3]
	bodies, n := s.coalesce(buf, nil)
	if len(bodies) != len(want) || n != whole {
		t.Fatalf("coalesced %d frames of %d bytes, want %d of %d", len(bodies), n, len(want), whole)
	}
	at := 0
	for i, b := range bodies {
		if !bytes.Equal(b, want[i]) {
			t.Errorf("body %d: %d bytes, not the frame sent", i, len(b))
		}
		if cap(b) != len(b) {
			t.Errorf("body %d: cap %d past its len %d", i, cap(b), len(b))
		}
		if &b[0] != &buf[at+4] {
			t.Errorf("body %d does not lie behind its header at offset %d of the buffer", i, at)
		}
		at += 4 + len(b)
	}
	// The batch limit caps the group.
	s.maxBatchSubs = 2
	if bodies, n := s.coalesce(buf, nil); len(bodies) != 2 || n != 8+len(want[0])+len(want[1]) {
		t.Errorf("under a limit of 2: %d frames of %d bytes", len(bodies), n)
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

// TestConnBuffersStaySmallForSerialFrames: a connection's frame and
// response buffers are sized by its traffic. After 1 000 serial frames of a
// few hundred bytes each holds at most 8 KiB, where a fixed pair of
// buffered reader and writer held 64 KiB each.
func TestConnBuffersStaySmallForSerialFrames(t *testing.T) {
	srv, err := New(EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}}, WithLogger(quietLogger()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	client, server := net.Pipe()
	var bufs connBuffers
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.serveConn(context.Background(), server, &bufs)
	}()
	payload := bytes.Repeat([]byte("p"), 150)
	for i := range 1000 {
		id := object.ID(fmt.Sprintf("serial/%d", i/2))
		var msg wire.Message = &wire.Get{ID: id}
		if i%2 == 0 {
			msg = &wire.Put{ID: id, Importance: importance.Constant{Level: 0.5}, Payload: payload}
		}
		if _, err := client.Write(frameOf(t, msg, uint64(i))); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if _, err := wire.ReadFrame(client); err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
	}
	client.Close()
	<-served
	if cap(bufs.in) > 8<<10 || cap(bufs.out) > 8<<10 {
		t.Errorf("after 1 000 serial frames the connection holds a %d-byte frame buffer and a %d-byte response buffer, want at most 8 KiB each",
			cap(bufs.in), cap(bufs.out))
	}
}

// TestBurstIsOneGroupAfterTheFirst: a connection's read-ahead grows with its
// first burst, so on a WAL-backed node a burst of 64 PUTs written at once
// after it is read whole and admitted as one group, in one WAL write and
// one sync.
func TestBurstIsOneGroupAfterTheFirst(t *testing.T) {
	n := openAdmNode(t, t.TempDir(), 1, false)
	conn := serveRaw(t, n.srv)
	burst := func(name string) {
		t.Helper()
		var xs []exchange
		var stream []byte
		for i := range 64 {
			// Long IDs and short payloads: the burst passes the first read's
			// 4 KiB and fits the node's capacity twice over.
			id := object.ID(fmt.Sprintf("%s/%02d/%s", name, i, bytes.Repeat([]byte("x"), 40)))
			x := putExchange(t, id, bytes.Repeat([]byte{byte(i)}, 16), uint64(i))
			xs, stream = append(xs, x), append(stream, x.req...)
		}
		if _, err := conn.Write(stream); err != nil {
			t.Fatal(err)
		}
		readAnswers(t, conn, xs)
	}
	burst("first")
	writes, syncs := n.wal.writes.Load(), n.wal.syncs.Load()
	burst("second")
	if writes, syncs := n.wal.writes.Load()-writes, n.wal.syncs.Load()-syncs; writes != 1 || syncs != 1 {
		t.Errorf("the second burst of 64 PUTs cost %d WAL write(s) and %d sync(s), want one group's one of each", writes, syncs)
	}
}

// TestFrameBufferGrowth: a header alone grows the frame buffer by no more
// than bodyReadAhead past what has arrived, and a 4 MiB frame arriving
// 64 KiB a read grows it a handful of times, not once a read.
func TestFrameBufferGrowth(t *testing.T) {
	s := &Server{maxBatchSubs: wire.MaxBatchSubs}
	client, server := net.Pipe()
	defer server.Close()
	body := bytes.Repeat([]byte{7}, 4<<20)
	go func() {
		defer client.Close()
		if _, err := client.Write(binary.BigEndian.AppendUint32(nil, uint32(len(body)))); err != nil {
			return
		}
		for at := 0; at < len(body); at += 64 << 10 {
			if _, err := client.Write(body[at : at+64<<10]); err != nil {
				return
			}
		}
	}()
	var b connBuffers
	if err := b.fill(server); err != nil || len(b.in) != 4 {
		t.Fatalf("the header's read: %d bytes, %v", len(b.in), err)
	}
	if err := b.fill(server); err != nil {
		t.Fatal(err)
	}
	if cap(b.in) > 4+bodyReadAhead {
		t.Errorf("after the header and %d body bytes the buffer holds %d bytes, want at most %d",
			len(b.in)-4, cap(b.in), 4+bodyReadAhead)
	}
	grown := 0
	for {
		if bodies, _ := s.coalesce(b.in, nil); len(bodies) > 0 {
			if !bytes.Equal(bodies[0], body) {
				t.Fatal("the frame read back differs")
			}
			break
		}
		before := cap(b.in)
		if err := b.fill(server); err != nil {
			t.Fatal(err)
		}
		if cap(b.in) != before {
			grown++
		}
	}
	if grown > 4 {
		t.Errorf("a 4 MiB frame arriving 64 KiB a read grew the buffer %d times", grown)
	}
}
