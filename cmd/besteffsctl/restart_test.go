package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/client"
	"besteffs/internal/importance"
	"besteffs/internal/journal"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/server"
)

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// node is one daemon life over a data dir, served on loopback.
type node struct {
	srv   *server.Server
	c     *client.Client
	stats server.RestoreStats
	// stop ends the life: stop serving, checkpoint when asked to (as the
	// daemon's drain does), then close the WAL and the payload log.
	stop func(checkpoint bool)
}

// bootNode is a daemon boot at the given shard count over a 1 MiB node:
// open the WAL, build the server over the file blob store, recover from the
// directory and serve on loopback. A refused boot closes what it opened.
func bootNode(t *testing.T, dataDir string, shards int) (*node, error) {
	t.Helper()
	wal, err := server.OpenWAL(dataDir, journal.WithSegmentBytes(256))
	if err != nil {
		return nil, err
	}
	files, err := blob.NewFileStore(filepath.Join(dataDir, "blobs"))
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	srv, err := server.New(
		server.EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}, Shards: shards},
		server.WithWAL(wal), server.WithBlobStore(files), server.WithLogger(quiet))
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	closeLogs := func() {
		if err := wal.Close(); err != nil {
			t.Errorf("wal close: %v", err)
		}
		if err := files.Close(); err != nil {
			t.Errorf("payload log close: %v", err)
		}
	}
	stats, err := srv.RestoreDir(dataDir)
	if err != nil {
		closeLogs()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, l) }()
	c, err := client.Connect(l.Addr().String(), client.WithTimeout(time.Second))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	n := &node{srv: srv, c: c, stats: stats}
	stopped := false
	n.stop = func(checkpoint bool) {
		if stopped {
			return
		}
		stopped = true
		c.Close()
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		if checkpoint {
			if _, err := srv.Checkpoint(); err != nil {
				t.Errorf("final checkpoint: %v", err)
			}
		}
		closeLogs()
	}
	t.Cleanup(func() { n.stop(false) })
	return n, nil
}

// resident is what must survive a restart about one object.
type resident struct {
	arrival time.Duration
	size    int64
	version uint32
	owner   string
}

func residentsOf(srv *server.Server) map[object.ID]resident {
	out := make(map[object.ID]resident)
	for _, o := range srv.Engine().Residents() {
		out[o.ID] = resident{o.Arrival, o.Size, o.Version, o.Owner()}
	}
	return out
}

// dirDigest hashes every path under root with its contents.
func dirDigest(t *testing.T, root string) string {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00", strings.TrimPrefix(path, root))
		if d.IsDir() {
			return nil
		}
		data, err := os.ReadFile(path)
		fmt.Fprintf(h, "%d\x00%s", len(data), data)
		return err
	})
	if err != nil {
		t.Fatalf("walk %s: %v", root, err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func fsckClean(t *testing.T, dataDir string) {
	t.Helper()
	var out bytes.Buffer
	if err := cmdFsck(dataDir, &out); err != nil || strings.Contains(out.String(), "warning") {
		t.Fatalf("fsck: %v\n%s", err, out.String())
	}
}

// payloadOf is object i's payload: size bytes, distinct per object.
func payloadOf(i, size int) []byte {
	return bytes.Repeat([]byte{byte(i), byte(i >> 8), 0xA5, 0x5A}, size/4)
}

// put stores id, owned by owner-<id>, and fails the test unless it was
// admitted without preempting anything.
func put(t *testing.T, c *client.Client, id object.ID, payload []byte) {
	t.Helper()
	res, err := c.PutCtx(context.Background(), client.PutRequest{
		ID: id, Owner: "owner-" + string(id),
		Importance: importance.Constant{Level: 0.9}, Payload: payload,
	})
	if err != nil || !res.Admitted || len(res.Evicted) != 0 {
		t.Fatalf("put %s = %+v, %v", id, res, err)
	}
}

// TestRestartAtAnotherShardCount: a half-full 1-shard node -- a checkpoint,
// younger segments, a rejuvenation, a delete -- restarts at 4 shards after
// a stop that writes no checkpoint, so recovery routes both the checkpoint
// and the replayed records, then at 2 after a clean stop. At each count
// every resident keeps its arrival, version, owner and payload on its home
// shard, the clock resumes no earlier than the newest record, and fsck is
// clean.
func TestRestartAtAnotherShardCount(t *testing.T) {
	const size = 32 << 10
	dataDir := t.TempDir()
	ctx := context.Background()

	n, err := bootNode(t, dataDir, 1)
	if err != nil {
		t.Fatalf("boot fresh dir: %v", err)
	}
	payloads := make(map[object.ID][]byte)
	for i := 0; i < 16; i++ {
		id := object.ID(fmt.Sprintf("obj-%02d", i))
		payloads[id] = payloadOf(i, size)
		put(t, n.c, id, payloads[id])
		if i == 7 {
			if _, err := n.srv.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	if _, err := n.c.RejuvenateCtx(ctx, "obj-02", importance.Constant{Level: 0.5}); err != nil {
		t.Fatalf("rejuvenate obj-02: %v", err)
	}
	// The newest record is a delete: no resident's arrival carries its
	// instant, only the journal's does.
	lastEvent := n.srv.Now()
	if err := n.c.DeleteCtx(ctx, "obj-01"); err != nil {
		t.Fatalf("delete obj-01: %v", err)
	}
	want := residentsOf(n.srv)
	if len(want) != 15 || want["obj-02"].version != 2 {
		t.Fatalf("seed state = %+v", want)
	}
	n.stop(false)

	for _, step := range []struct {
		shards int
		// replayed: the boot replays records on top of the checkpoint; only
		// a stop that writes no final checkpoint leaves any.
		replayed       bool
		stopCheckpoint bool
	}{
		{shards: 4, replayed: true, stopCheckpoint: true},
		{shards: 2, replayed: false},
	} {
		shards := step.shards
		n, err := bootNode(t, dataDir, shards)
		if err != nil {
			t.Fatalf("boot at %d shards: %v", shards, err)
		}
		if got := n.stats.Records > 0; got != step.replayed {
			t.Errorf("%d shards: replayed %d records, want replay %v", shards, n.stats.Records, step.replayed)
		}
		if n.stats.CheckpointObjects == 0 {
			t.Errorf("%d shards: no checkpoint loaded", shards)
		}
		// The payload log writes no tombstones: the one record no resident
		// references is that of the deleted object.
		if n.stats.DroppedNoPayload != 0 || n.stats.DroppedOrphanBlobs != 1 {
			t.Errorf("%d shards: reconciliation dropped %d residents and %d payload records, want 0 and 1",
				shards, n.stats.DroppedNoPayload, n.stats.DroppedOrphanBlobs)
		}
		if n.stats.Resume < lastEvent {
			t.Errorf("%d shards: clock resumed at %v, before the last recorded event at %v", shards, n.stats.Resume, lastEvent)
		}
		got := residentsOf(n.srv)
		if len(got) != len(want) {
			t.Errorf("%d shards: %d residents, want %d", shards, len(got), len(want))
		}
		for id, w := range want {
			if got[id] != w {
				t.Errorf("%d shards: %s = %+v, want %+v", shards, id, got[id], w)
			}
			if idx, ok := n.srv.Engine().Locate(id); !ok || idx != n.srv.Engine().Home(id) {
				t.Errorf("%d shards: %s not resident on its home shard", shards, id)
			}
			obj, err := n.c.GetCtx(ctx, id)
			if err != nil || !bytes.Equal(obj.Payload, payloads[id]) {
				t.Errorf("%d shards: get %s = %v; want its payload byte-exact", shards, id, err)
			}
		}
		n.stop(step.stopCheckpoint)
		fsckClean(t, dataDir)
	}
}

// TestFullNodeRefusedAtAnotherShardCount: a 1-shard node filled to the byte
// holds more on some shard of four than that shard's quarter of the
// capacity. Asked to boot at 4 shards, the node is refused with an error
// naming the shard and the count, and the data dir does not change; the
// count that wrote it still boots, with every resident byte-exact.
func TestFullNodeRefusedAtAnotherShardCount(t *testing.T) {
	const objects, size = 256, 4 << 10 // 1 MiB exactly
	dataDir := t.TempDir()
	ctx := context.Background()
	n, err := bootNode(t, dataDir, 1)
	if err != nil {
		t.Fatalf("boot fresh dir: %v", err)
	}
	for i := 0; i < objects; i++ {
		put(t, n.c, object.ID(fmt.Sprintf("obj-%d", i)), payloadOf(i, size))
	}
	if free := n.srv.Engine().Free(); free != 0 {
		t.Fatalf("node has %d bytes free, want 0", free)
	}
	n.stop(true)

	before := dirDigest(t, dataDir)
	_, err = bootNode(t, dataDir, 4)
	if err == nil || errors.Is(err, server.ErrLayoutMismatch) || !strings.Contains(err.Error(), " of 4 ") {
		t.Errorf("boot at 4 shards = %v, want a refusal naming the shard of 4 that cannot hold its residents", err)
	}
	t.Logf("boot at 4 shards: %v", err)
	if dirDigest(t, dataDir) != before {
		t.Error("the refused boot modified the data dir")
	}

	n, err = bootNode(t, dataDir, 1)
	if err != nil {
		t.Fatalf("boot at 1 shard after the refusal: %v", err)
	}
	if got := n.srv.Engine().Len(); got != objects {
		t.Errorf("1 shard: %d residents, want %d", got, objects)
	}
	for i := 0; i < objects; i++ {
		id := object.ID(fmt.Sprintf("obj-%d", i))
		obj, err := n.c.GetCtx(ctx, id)
		if err != nil || !bytes.Equal(obj.Payload, payloadOf(i, size)) {
			t.Fatalf("get %s = %v; want its payload byte-exact", id, err)
		}
	}
}
