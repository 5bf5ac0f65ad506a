package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"besteffs/internal/client"
	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/wire"
)

// serveRaw serves srv on a loopback listener and returns a raw connection to
// it. Everything shuts down with the test.
func serveRaw(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, l) }()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() {
		conn.Close()
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	return conn
}

// rawNode is a one-shard memory node on a manual clock that never moves, so
// every answer it gives has bytes a test can build in advance.
func rawNode(t *testing.T, capacity int64) (*Server, net.Conn) {
	t.Helper()
	clock := &manualClock{}
	srv, err := New(EngineConfig{Capacity: capacity, Policy: policy.TemporalImportance{}},
		WithClock(clock.Now), WithLogger(quietLogger()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv, serveRaw(t, srv)
}

// exchange is one request frame and the answer frame expected for it, both
// whole: header and body.
type exchange struct {
	req, want []byte
}

// frameOf encodes msg as a whole frame carrying the sequence trailer seq.
func frameOf(t *testing.T, msg wire.Message, seq uint64) []byte {
	t.Helper()
	body, err := wire.Encode(msg)
	if err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	body = wire.AppendSeq(body, seq)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// putExchange is a fresh put of payload under importance 0.5 that the node
// admits into free space, and its answer.
func putExchange(t *testing.T, id object.ID, payload []byte, seq uint64) exchange {
	imp := importance.Constant{Level: 0.5}
	return exchange{
		req:  frameOf(t, &wire.Put{ID: id, Importance: imp, Payload: payload}, seq),
		want: frameOf(t, &wire.PutResult{Admitted: true}, seq),
	}
}

// getExchange reads back what putExchange stored, at age zero.
func getExchange(t *testing.T, id object.ID, payload []byte, seq uint64) exchange {
	imp := importance.Constant{Level: 0.5}
	return exchange{
		req: frameOf(t, &wire.Get{ID: id}, seq),
		want: frameOf(t, &wire.ObjectMsg{ID: id, Version: 1, Importance: imp,
			CurrentImportance: 0.5, Payload: payload}, seq),
	}
}

// readAnswers reads one answer frame per exchange and checks each byte for
// byte, in order.
func readAnswers(t *testing.T, conn net.Conn, xs []exchange) {
	t.Helper()
	for i, x := range xs {
		got := make([]byte, len(x.want))
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatalf("answer %d of %d: %v", i, len(xs), err)
		}
		if !bytes.Equal(got, x.want) {
			t.Fatalf("answer %d of %d: %d bytes that differ from the %d expected", i, len(xs), len(got), len(x.want))
		}
	}
}

// TestConnFramesWrittenByteByByte: 200 small PUT and GET frames, every byte
// of them written on its own, are each answered in order with exactly the
// bytes a whole frame would get.
func TestConnFramesWrittenByteByByte(t *testing.T) {
	_, conn := rawNode(t, 1<<20)
	var xs []exchange
	var stream []byte
	for i := range 100 {
		id := object.ID(fmt.Sprintf("byte/%03d", i))
		payload := bytes.Repeat([]byte{byte(i)}, 40+i)
		for _, x := range []exchange{putExchange(t, id, payload, uint64(2*i)), getExchange(t, id, payload, uint64(2*i+1))} {
			xs = append(xs, x)
			stream = append(stream, x.req...)
		}
	}
	written := make(chan error, 1)
	go func() {
		for i := range stream {
			if _, err := conn.Write(stream[i : i+1]); err != nil {
				written <- err
				return
			}
		}
		written <- nil
	}()
	readAnswers(t, conn, xs)
	if err := <-written; err != nil {
		t.Fatalf("write: %v", err)
	}
}

// TestConnBurstWithPartialTail: 64 PUTs in one write, followed by the first
// half of a 65th frame, are answered without waiting for the 65th; its rest
// then completes it and it is answered too.
func TestConnBurstWithPartialTail(t *testing.T) {
	_, conn := rawNode(t, 1<<20)
	var xs []exchange
	var burst []byte
	for i := range 65 {
		x := putExchange(t, object.ID(fmt.Sprintf("burst/%03d", i)), bytes.Repeat([]byte{byte(i)}, 100), uint64(i))
		xs = append(xs, x)
		burst = append(burst, x.req...)
	}
	last := xs[64].req
	half := len(burst) - len(last)/2
	if _, err := conn.Write(burst[:half]); err != nil {
		t.Fatal(err)
	}
	readAnswers(t, conn, xs[:64])
	if _, err := conn.Write(burst[half:]); err != nil {
		t.Fatal(err)
	}
	readAnswers(t, conn, xs[64:])
}

// TestConnLargeBatchFrame: a BATCH of 64 × 16 KiB puts, a frame of over a
// MiB, is answered whole.
func TestConnLargeBatchFrame(t *testing.T) {
	_, conn := rawNode(t, 4<<20)
	batch := &wire.Batch{}
	answer := &wire.BatchResult{}
	for i := range 64 {
		batch.Subs = append(batch.Subs, &wire.Put{ID: object.ID(fmt.Sprintf("big/%02d", i)),
			Importance: importance.Constant{Level: 0.5}, Payload: bytes.Repeat([]byte{byte(i)}, 16<<10)})
		answer.Results = append(answer.Results, &wire.PutResult{Admitted: true})
	}
	x := exchange{req: frameOf(t, batch, 7), want: frameOf(t, answer, 7)}
	if _, err := conn.Write(x.req); err != nil {
		t.Fatal(err)
	}
	readAnswers(t, conn, []exchange{x})
	// Every sub-put is resident, byte for byte.
	var gets []exchange
	var stream []byte
	for i, sub := range batch.Subs {
		p := sub.(*wire.Put)
		g := getExchange(t, p.ID, p.Payload, uint64(100+i))
		gets, stream = append(gets, g), append(stream, g.req...)
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	readAnswers(t, conn, gets)
}

// TestConnAnswerLargerThan64KiB: a GET whose answer is larger than 64 KiB is
// answered whole.
func TestConnAnswerLargerThan64KiB(t *testing.T) {
	_, conn := rawNode(t, 1<<20)
	payload := make([]byte, 100<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	xs := []exchange{putExchange(t, "large", payload, 1), getExchange(t, "large", payload, 2)}
	for _, x := range xs {
		if _, err := conn.Write(x.req); err != nil {
			t.Fatal(err)
		}
		readAnswers(t, conn, []exchange{x})
	}
}

// TestConnHeaderThenEOF: a frame header followed by the end of the stream
// gets no answer, and the node closes the connection.
func TestConnHeaderThenEOF(t *testing.T) {
	_, conn := rawNode(t, 1<<20)
	if _, err := conn.Write(binary.BigEndian.AppendUint32(nil, 100)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("read after the header: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("the node answered a header alone with %d bytes", len(got))
	}
}

// TestOwnerClassVersionSurvive: an object's owner, class and version come
// back in its GET answer after a PUT, an UPDATE and a REPLICATE, after the
// node replays its journal, and after it restores a checkpoint; LIST names
// every object.
func TestOwnerClassVersionSurvive(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	imp := importance.Constant{Level: 0.5}
	c1, _, _ := startPersistentNode(t, dir, nil)
	if res, err := c1.PutCtx(ctx, client.PutRequest{ID: "alice/1", Owner: "alice", Class: object.ClassStudent,
		Importance: imp, Payload: []byte("one")}); err != nil || !res.Admitted {
		t.Fatalf("PUT alice/1 = %+v, %v", res, err)
	}
	if res, err := c1.PutCtx(ctx, client.PutRequest{ID: "alice/2", Owner: "alice", Class: object.ClassStudent,
		Importance: imp, Payload: []byte("two")}); err != nil || !res.Admitted {
		t.Fatalf("PUT alice/2 = %+v, %v", res, err)
	}
	if res, err := c1.UpdateCtx(ctx, client.PutRequest{ID: "alice/2", Owner: "alice", Class: object.ClassStudent,
		Importance: imp, Payload: []byte("two, again")}); err != nil || !res.Admitted {
		t.Fatalf("UPDATE alice/2 = %+v, %v", res, err)
	}
	if res, err := c1.ReplicateCtx(ctx, &wire.Replicate{ID: "bob/1", Owner: "bob", Class: object.ClassUniversity,
		Version: 5, Importance: imp, Payload: []byte("five")}); err != nil || !res.Admitted {
		t.Fatalf("REPLICATE bob/1 = %+v, %v", res, err)
	}
	if res, err := c1.PutCtx(ctx, client.PutRequest{ID: "anon", Importance: imp, Payload: []byte("nobody's")}); err != nil || !res.Admitted {
		t.Fatalf("PUT anon = %+v, %v", res, err)
	}
	want := []struct {
		id      object.ID
		owner   string
		class   object.Class
		version uint32
	}{
		{"alice/1", "alice", object.ClassStudent, 1},
		{"alice/2", "alice", object.ClassStudent, 2},
		{"bob/1", "bob", object.ClassUniversity, 5},
		{"anon", "", object.ClassGeneric, 1},
	}
	check := func(life string, c *client.Client) {
		t.Helper()
		for _, w := range want {
			got, err := c.GetCtx(ctx, w.id)
			if err != nil {
				t.Fatalf("%s: GET %s: %v", life, w.id, err)
			}
			if got.Owner != w.owner || got.Class != w.class || got.Version != w.version {
				t.Errorf("%s: GET %s = owner %q, class %v, version %d; want %q, %v, %d",
					life, w.id, got.Owner, got.Class, got.Version, w.owner, w.class, w.version)
			}
		}
		ids, err := c.ListCtx(ctx)
		if err != nil {
			t.Fatalf("%s: LIST: %v", life, err)
		}
		listed := map[object.ID]bool{}
		for _, id := range ids {
			listed[id] = true
		}
		for _, w := range want {
			if !listed[w.id] {
				t.Errorf("%s: LIST %v does not name %s", life, ids, w.id)
			}
		}
		if len(ids) != len(want) {
			t.Errorf("%s: LIST names %d objects, want %d", life, len(ids), len(want))
		}
	}
	check("first life", c1)

	c2, srv2, stats := startPersistentNode(t, dir, nil)
	if stats.Residents != len(want) {
		t.Fatalf("journal replay restored %d residents, want %d", stats.Residents, len(want))
	}
	check("after journal replay", c2)
	if _, err := srv2.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	c3, _, stats := startPersistentNode(t, dir, nil)
	if stats.Residents != len(want) {
		t.Fatalf("checkpoint restore restored %d residents, want %d", stats.Residents, len(want))
	}
	check("after checkpoint restore", c3)
}

// TestFairShareOwnersOverTCP: a fair-share node quotas "alice" apart from
// the anonymous owner. Each may hold half the node; an owner past its half
// is refused on its quota, whichever of its puts carried the owner's name.
func TestFairShareOwnersOverTCP(t *testing.T) {
	srv, err := New(EngineConfig{Capacity: 1000, Policy: policy.FairShare{MaxFraction: 0.5}},
		WithLogger(quietLogger()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addr := serveRaw(t, srv).RemoteAddr().String()
	c, err := client.Connect(addr, client.WithTimeout(2*time.Second))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	imp := importance.Constant{Level: 1}
	put := func(id object.ID, owner string, size int) client.PutResult {
		t.Helper()
		res, err := c.PutCtx(ctx, client.PutRequest{ID: id, Owner: owner, Importance: imp, Payload: make([]byte, size)})
		if err != nil {
			t.Fatalf("PUT %s: %v", id, err)
		}
		return res
	}
	if res := put("anon/1", "", 300); !res.Admitted {
		t.Fatalf("anon/1 refused: %+v", res)
	}
	// alice's 400 bytes fit her own half, whatever the anonymous owner holds.
	if res := put("alice/1", "alice", 400); !res.Admitted {
		t.Fatalf("alice/1 refused beside the anonymous owner's bytes: %+v", res)
	}
	// A second put under an owner string of its own still counts against
	// alice: 600 bytes would pass her half.
	if res := put("alice/2", string([]byte("alice")), 200); res.Admitted || res.Reason != uint8(policy.ReasonQuota) {
		t.Errorf("alice/2 = %+v, want refused on alice's quota", res)
	}
	if res := put("anon/2", "", 300); res.Admitted || res.Reason != uint8(policy.ReasonQuota) {
		t.Errorf("anon/2 = %+v, want refused on the anonymous quota", res)
	}
	if res := put("alice/3", "alice", 100); !res.Admitted {
		t.Errorf("alice/3 refused inside alice's half: %+v", res)
	}
}
