package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/client"
	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/wire"
)

// startPersistentNode builds a node backed by a file blob store and a WAL,
// restores prior state, and serves on a loopback listener.
func startPersistentNode(t *testing.T, dir string, clock *manualClock) (*client.Client, *Server, RestoreStats) {
	t.Helper()
	files, err := blob.NewFileStore(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	t.Cleanup(func() { files.Close() })
	wal, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	t.Cleanup(func() { wal.Close() })

	opts := []Option{WithBlobStore(files), WithWAL(wal)}
	if clock != nil {
		opts = append(opts, WithClock(clock.Now))
	}
	srv, err := New(EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}}, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stats, err := srv.RestoreDir(dir)
	if err != nil {
		t.Fatalf("RestoreDir: %v", err)
	}
	if clock != nil {
		// Tests that drive time explicitly re-pin the clock after
		// RestoreDir replaced it with the resumed wall clock.
		srv.clock = clock.Now
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, l) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	c, err := client.Connect(l.Addr().String(), client.WithTimeout(time.Second))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c, srv, stats
}

func TestRestoreAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	clock := &manualClock{}

	// First life: store three objects, delete one, rejuvenate another.
	c1, _, stats := startPersistentNode(t, dir, clock)
	if stats.Records != 0 || stats.Residents != 0 {
		t.Fatalf("fresh node restore stats = %+v", stats)
	}
	twoStep := importance.TwoStep{Plateau: 1, Persist: 10 * day, Wane: 10 * day}
	for _, id := range []string{"a", "b", "c"} {
		if _, err := c1.PutCtx(context.Background(), client.PutRequest{
			ID: object.ID(id), Owner: "owner-" + id,
			Importance: twoStep, Payload: []byte("payload-" + id),
		}); err != nil {
			t.Fatalf("Put %s: %v", id, err)
		}
		clock.Advance(time.Hour)
	}
	if err := c1.DeleteCtx(context.Background(), "b"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c1.RejuvenateCtx(context.Background(), "c", importance.Constant{Level: 0.3}); err != nil {
		t.Fatalf("Rejuvenate: %v", err)
	}
	if res, err := c1.UpdateCtx(context.Background(), client.PutRequest{
		ID: "a", Owner: "owner-a", Importance: twoStep, Payload: []byte("payload-a-v2"),
	}); err != nil || !res.Admitted {
		t.Fatalf("Update = %+v, %v", res, err)
	}
	// (The first node's listener and WAL close via t.Cleanup at the end
	// of the test; the idle first WAL does not disturb the reopened one.)

	// Second life: a brand-new server over the same directory.
	c2, srv2, stats2 := startPersistentNode(t, dir, nil)
	// 3 puts + 1 delete + 1 rejuvenate + 1 update (evict of the old
	// version + put of the new).
	if stats2.Records != 7 {
		t.Errorf("restored records = %d, want 7", stats2.Records)
	}
	if stats2.Residents != 2 {
		t.Errorf("restored residents = %d, want 2 (a, c)", stats2.Residents)
	}
	if stats2.Resume < 3*time.Hour {
		t.Errorf("resume = %v, want >= 3h", stats2.Resume)
	}
	if srv2.Now() < stats2.Resume {
		t.Errorf("clock %v did not resume from %v", srv2.Now(), stats2.Resume)
	}

	got, err := c2.GetCtx(context.Background(), "a")
	if err != nil {
		t.Fatalf("Get a after restart: %v", err)
	}
	if string(got.Payload) != "payload-a-v2" || got.Owner != "owner-a" || got.Version != 2 {
		t.Errorf("restored a = version %d, %q, owner %q", got.Version, got.Payload, got.Owner)
	}
	if _, err := c2.GetCtx(context.Background(), "b"); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("deleted object resurrected: %v", err)
	}
	gotC, err := c2.GetCtx(context.Background(), "c")
	if err != nil {
		t.Fatalf("Get c: %v", err)
	}
	if gotC.Version != 2 || gotC.CurrentImportance != 0.3 {
		t.Errorf("rejuvenation lost across restart: %+v", gotC)
	}
}

// damagePayloadRecord flips a byte in the ID of the record holding payload
// in the node's payload log, so that the record's header no longer verifies.
func damagePayloadRecord(t *testing.T, dataDir string, id object.ID, payload []byte) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dataDir, "blobs", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		// A record is header, ID, payload: the ID ends where the payload
		// begins.
		at := bytes.Index(raw, append([]byte(id), payload...))
		if at < 0 {
			continue
		}
		raw[at] ^= 0x01
		if err := os.WriteFile(seg, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("no payload segment holds the record of %s", id)
}

func TestRestoreReconcilesMissingPayload(t *testing.T) {
	dir := t.TempDir()
	clock := &manualClock{}
	c1, _, _ := startPersistentNode(t, dir, clock)
	// The damaged record goes last, so that the scan loses nothing else.
	for _, id := range []string{"keep", "lost"} {
		if _, err := c1.PutCtx(context.Background(), client.PutRequest{
			ID: object.ID(id), Importance: importance.Constant{Level: 1},
			Payload: []byte(id),
		}); err != nil {
			t.Fatalf("Put %s: %v", id, err)
		}
	}
	// Simulate a disk that lost one payload record but kept the WAL.
	damagePayloadRecord(t, dir, "lost", []byte("lost"))

	c2, _, stats := startPersistentNode(t, dir, nil)
	if stats.DroppedNoPayload != 1 {
		t.Errorf("DroppedNoPayload = %d, want 1", stats.DroppedNoPayload)
	}
	if _, err := c2.GetCtx(context.Background(), "lost"); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("payloadless object still resident: %v", err)
	}
	if _, err := c2.GetCtx(context.Background(), "keep"); err != nil {
		t.Errorf("intact object lost: %v", err)
	}
}

func TestRestoreReconcilesOrphanBlob(t *testing.T) {
	dir := t.TempDir()
	files, err := blob.NewFileStore(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	t.Cleanup(func() { files.Close() })
	// A payload record with no WAL history (a crash before the WAL append,
	// or what every eviction leaves behind in a log without tombstones).
	if err := files.Put("orphan", []byte("x")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	before := treeDigest(t, dir)
	_, srv, stats := startPersistentNode(t, dir, nil)
	if stats.DroppedOrphanBlobs != 1 {
		t.Errorf("DroppedOrphanBlobs = %d, want 1", stats.DroppedOrphanBlobs)
	}
	// The record is dead to the node, and only in its memory: recovery wrote
	// nothing beyond the WAL it opened.
	if _, err := srv.blobs.Get("orphan"); !errors.Is(err, blob.ErrNotFound) {
		t.Errorf("orphan payload survived reconciliation: %v", err)
	}
	if got, ok := srv.blobs.(*blob.FileStore); !ok || got.Stats().LiveBytes != 0 {
		t.Errorf("orphan record still counted live")
	}
	if err := os.RemoveAll(filepath.Join(dir, WALDirName)); err != nil {
		t.Fatal(err)
	}
	if after := treeDigest(t, dir); after != before {
		t.Error("reconciliation modified the payload log")
	}
}

// TestBatchSurvivesUncleanRestart: a node over a file payload store and a
// WAL takes 64-wide put batches until it has turned over half its capacity,
// then dies -- nothing closed, nothing checkpointed. A second node over the
// same directory holds exactly the objects the first one acknowledged and
// did not later preempt, each byte for byte.
func TestBatchSurvivesUncleanRestart(t *testing.T) {
	dataDir := t.TempDir()
	srv, err := openAndRestore(t, dataDir, 1)
	if err != nil {
		t.Fatalf("first boot: %v", err)
	}
	const width, size = 64, 4096 // the 1 MiB node holds four batches
	acked := make(map[object.ID][]byte)
	evicted := 0
	for b := 0; b < 6; b++ {
		subs := make([]wire.Message, width)
		payloads := make([][]byte, width)
		for i := range subs {
			p := make([]byte, size)
			for k := range p {
				p[k] = byte(b*width + i + k*k)
			}
			payloads[i] = p
			subs[i] = &wire.Put{
				ID: object.ID(fmt.Sprintf("batch-%d/%d", b, i)), Payload: p,
				// Later batches outrank earlier ones, so the last two
				// preempt the first two.
				Importance: importance.Constant{Level: 0.3 + 0.1*float64(b)},
			}
		}
		res, ok := srv.execute(&wire.Batch{Subs: subs}).(*wire.BatchResult)
		if !ok || len(res.Results) != width {
			t.Fatalf("batch %d = %T", b, res)
		}
		for i, r := range res.Results {
			pr, ok := r.(*wire.PutResult)
			if !ok || !pr.Admitted {
				t.Fatalf("batch %d sub %d = %+v, want admitted", b, i, r)
			}
			acked[subs[i].(*wire.Put).ID] = payloads[i]
			for _, v := range pr.Evicted {
				delete(acked, v)
				evicted++
			}
		}
	}
	if evicted != 2*width || len(acked) != 4*width {
		t.Fatalf("workload evicted %d and left %d acknowledged, want %d and %d",
			evicted, len(acked), 2*width, 4*width)
	}

	again, err := openAndRestore(t, dataDir, 1)
	if err != nil {
		t.Fatalf("boot after the unclean stop: %v", err)
	}
	if again.engine.Len() != len(acked) {
		t.Errorf("recovered %d residents, want %d", again.engine.Len(), len(acked))
	}
	for id, want := range acked {
		got, ok := again.execute(&wire.Get{ID: id}).(*wire.ObjectMsg)
		if !ok {
			t.Errorf("get %s after the restart = %T", id, again.execute(&wire.Get{ID: id}))
			continue
		}
		if !bytes.Equal(got.Payload, want) {
			t.Errorf("get %s after the restart: payload differs from the acknowledged one", id)
		}
	}
}
