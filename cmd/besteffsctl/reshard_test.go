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

// bootNode is a daemon boot at the given shard count: open the WALs, build
// the server over the shared file blob store, recover from the directory
// and serve on loopback.
func bootNode(t *testing.T, dataDir string, shards int) (*server.Server, *client.Client, server.RestoreStats, error) {
	t.Helper()
	wals, err := server.OpenShardWALs(dataDir, shards, journal.WithSegmentBytes(256))
	if err != nil {
		return nil, nil, server.RestoreStats{}, err
	}
	t.Cleanup(func() {
		for _, w := range wals {
			w.Close()
		}
	})
	files, err := blob.NewFileStore(filepath.Join(dataDir, "blobs"))
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	t.Cleanup(func() { files.Close() })
	srv, err := server.New(
		server.EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}, Shards: shards},
		server.WithWALs(wals), server.WithBlobStore(files), server.WithLogger(quiet))
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	stats, err := srv.RestoreDir(dataDir)
	if err != nil {
		return nil, nil, stats, err
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
	return srv, c, stats, nil
}

// resident is what must survive a reshard about one object.
type resident struct {
	arrival time.Duration
	size    int64
	version int
	owner   string
}

func residentsOf(srv *server.Server) map[object.ID]resident {
	out := make(map[object.ID]resident)
	for _, o := range srv.Engine().Residents() {
		out[o.ID] = resident{o.Arrival, o.Size, o.Version, o.Owner}
	}
	return out
}

func put(t *testing.T, c *client.Client, id string) {
	t.Helper()
	res, err := c.PutCtx(context.Background(), client.PutRequest{
		ID: object.ID(id), Owner: "owner-" + id,
		Importance: importance.Constant{Level: 0.9}, Payload: []byte("payload of " + id),
	})
	if err != nil || !res.Admitted {
		t.Fatalf("put %s = %+v, %v", id, res, err)
	}
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
		t.Fatalf("fsck after reshard: %v\n%s", err, out.String())
	}
}

// TestReshardConvertsBetweenShardCounts: a 1-shard data dir -- checkpoint,
// younger segments, a delete, a rejuvenation -- converts to 4 shards and
// then to 2. After each conversion fsck is clean, a node at the new count
// boots with exactly the residents, arrival times, versions and payloads of
// the old one and a clock that resumes no earlier than the newest record,
// and the old count is refused; converting to the count already there is a no-op.
func TestReshardConvertsBetweenShardCounts(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()

	srv, c, _, err := bootNode(t, dataDir, 1)
	if err != nil {
		t.Fatalf("boot fresh dir: %v", err)
	}
	for _, id := range []string{"alpha", "beta", "gamma", "delta"} {
		put(t, c, id)
	}
	if _, err := srv.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for _, id := range []string{"epsilon", "zeta", "eta", "theta"} {
		put(t, c, id)
	}
	if _, err := c.RejuvenateCtx(ctx, "gamma", importance.Constant{Level: 0.5}); err != nil {
		t.Fatalf("rejuvenate gamma: %v", err)
	}
	// The newest record is a delete: no resident's arrival carries its
	// instant, only the stream's resume clock does.
	lastEvent := srv.Now()
	if err := c.DeleteCtx(ctx, "beta"); err != nil {
		t.Fatalf("delete beta: %v", err)
	}
	want := residentsOf(srv)
	if len(want) != 7 || want["gamma"].version != 2 {
		t.Fatalf("seed state = %+v", want)
	}

	for _, shards := range []int{4, 2} {
		var out bytes.Buffer
		if err := cmdReshard(dataDir, shards, &out); err != nil {
			t.Fatalf("reshard to %d: %v", shards, err)
		}
		if got, err := server.DiscoverShards(dataDir); err != nil || got != shards {
			t.Fatalf("after reshard to %d: DiscoverShards = %d, %v", shards, got, err)
		}
		fsckClean(t, dataDir)

		// Again to the same count: nothing to do, nothing touched.
		before := dirDigest(t, dataDir)
		out.Reset()
		if err := cmdReshard(dataDir, shards, &out); err != nil || !strings.Contains(out.String(), "nothing to do") {
			t.Errorf("second reshard to %d = %v, %q", shards, err, out.String())
		}
		if dirDigest(t, dataDir) != before {
			t.Errorf("second reshard to %d modified the data dir", shards)
		}

		if _, _, _, err := bootNode(t, dataDir, 1); !errors.Is(err, server.ErrLayoutMismatch) {
			t.Errorf("1-shard boot over the %d-shard dir = %v, want ErrLayoutMismatch", shards, err)
		}
		node, nc, stats, err := bootNode(t, dataDir, shards)
		if err != nil {
			t.Fatalf("boot at %d shards: %v", shards, err)
		}
		// The payload log writes no tombstones: the one record no resident
		// references is that of the object the seed node deleted.
		if stats.DroppedNoPayload != 0 || stats.DroppedOrphanBlobs != 1 {
			t.Errorf("%d shards: reconciliation dropped %d residents and %d payload records, want 0 and 1",
				shards, stats.DroppedNoPayload, stats.DroppedOrphanBlobs)
		}
		if stats.Resume < lastEvent {
			t.Errorf("%d shards: clock resumed at %v, before the last recorded event at %v", shards, stats.Resume, lastEvent)
		}
		got := residentsOf(node)
		if len(got) != len(want) {
			t.Errorf("%d shards: %d residents, want %d", shards, len(got), len(want))
		}
		for id, w := range want {
			if got[id] != w {
				t.Errorf("%d shards: %s = %+v, want %+v", shards, id, got[id], w)
			}
			if idx, ok := node.Engine().Locate(id); !ok || idx != node.Engine().Home(id) {
				t.Errorf("%d shards: %s not resident on its home shard", shards, id)
			}
			obj, err := nc.GetCtx(ctx, id)
			if err != nil || string(obj.Payload) != "payload of "+string(id) {
				t.Errorf("%d shards: get %s = %+v, %v", shards, id, obj, err)
			}
		}

		// The replaced streams are kept, and block the next conversion
		// until the operator removes them.
		aside := filepath.Join(dataDir, server.ReshardAsideName)
		if _, err := os.Stat(aside); err != nil {
			t.Fatalf("old streams not kept: %v", err)
		}
		before = dirDigest(t, dataDir)
		if err := cmdReshard(dataDir, shards+1, io.Discard); err == nil || dirDigest(t, dataDir) != before {
			t.Errorf("reshard over a kept %s = %v, want a refusal that changes nothing", server.ReshardAsideName, err)
		}
		if err := os.RemoveAll(aside); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInterruptedReshardIsRefused: a reshard that died mid-way leaves
// reshard.tmp behind, and with it a directory neither the daemon nor a
// second reshard will touch.
func TestInterruptedReshardIsRefused(t *testing.T) {
	dataDir := buildShardedDataDir(t, 4)
	if err := os.Mkdir(filepath.Join(dataDir, server.ReshardTempName), 0o755); err != nil {
		t.Fatal(err)
	}
	before := dirDigest(t, dataDir)
	for _, shards := range []int{4, 2} {
		if _, _, _, err := bootNode(t, dataDir, shards); !errors.Is(err, server.ErrLayoutMismatch) {
			t.Errorf("boot at %d shards = %v, want ErrLayoutMismatch", shards, err)
		}
	}
	if err := cmdReshard(dataDir, 2, io.Discard); !errors.Is(err, server.ErrLayoutMismatch) {
		t.Errorf("reshard = %v, want ErrLayoutMismatch", err)
	}
	if dirDigest(t, dataDir) != before {
		t.Error("the interrupted directory was modified")
	}
}
