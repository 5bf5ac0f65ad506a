package server

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"besteffs/internal/blob"
	"besteffs/internal/importance"
	"besteffs/internal/journal"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/wire"
)

// treeDigest hashes every path under root with its contents: two equal
// digests mean a byte-identical directory tree.
func treeDigest(t *testing.T, root string) string {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00", rel)
		if d.IsDir() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%d\x00%s", len(data), data)
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", root, err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// seedDataDir runs a node of the given shard count over a fresh data dir --
// file blobs, WALs, eight objects, one of them deleted again -- and shuts it
// down cleanly. It returns the data dir and the surviving IDs.
func seedDataDir(t *testing.T, shards int) (string, []object.ID) {
	t.Helper()
	dataDir := t.TempDir()
	wals, err := OpenShardWALs(dataDir, shards, journal.WithSegmentBytes(crashSegBytes))
	if err != nil {
		t.Fatalf("OpenShardWALs: %v", err)
	}
	files, err := blob.NewFileStore(filepath.Join(dataDir, "blobs"))
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	t.Cleanup(func() { files.Close() })
	srv, err := New(EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}, Shards: shards},
		WithWALs(wals), WithBlobStore(files), WithLogger(quietLogger()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var ids []object.ID
	for i := 0; i < 8; i++ {
		id := object.ID(fmt.Sprintf("obj-%d", i))
		srv.execute(&wire.Put{ID: id, Importance: importance.Constant{Level: 0.9}, Payload: make([]byte, 128)})
		ids = append(ids, id)
	}
	srv.execute(&wire.Delete{ID: ids[0]})
	for _, w := range wals {
		if err := w.Close(); err != nil {
			t.Fatalf("wal close: %v", err)
		}
	}
	return dataDir, ids[1:]
}

// openAndRestore is a daemon boot: open the WALs for the shard count, then
// recover from the directory.
func openAndRestore(t *testing.T, dataDir string, shards int) (*Server, error) {
	t.Helper()
	wals, err := OpenShardWALs(dataDir, shards, journal.WithSegmentBytes(crashSegBytes))
	if err != nil {
		return nil, err
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
	srv, err := New(EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}, Shards: shards},
		WithWALs(wals), WithBlobStore(files), WithLogger(quietLogger()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, err = srv.RestoreDir(dataDir)
	return srv, err
}

// TestLayoutMismatchRefusedUntouched: a data dir laid out for another shard
// count, holding two layouts at once, missing a shard, carrying a pre-WAL
// journal.log or the leftovers of an interrupted reshard is refused with
// ErrLayoutMismatch by both halves of a boot, and not one byte of it -- the
// payloads reconciliation used to delete as orphans least of all -- changes.
func TestLayoutMismatchRefusedUntouched(t *testing.T) {
	mkdir := func(t *testing.T, path string) {
		if err := os.MkdirAll(path, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		seeded  int
		damage  func(t *testing.T, dataDir string)
		request int
		want    string // must appear in the refusal
	}{
		{name: "4 to 2", seeded: 4, request: 2, want: "besteffsctl reshard"},
		{name: "4 to 1", seeded: 4, request: 1, want: "holds 4 shard stream(s) but 1 were requested"},
		{name: "1 to 4", seeded: 1, request: 4, want: "holds 1 shard stream(s) but 4 were requested"},
		{name: "mixed", seeded: 4, request: 4, want: "both",
			damage: func(t *testing.T, d string) { mkdir(t, filepath.Join(d, WALDirName)) }},
		{name: "gap", seeded: 4, request: 4, want: "not shard-000",
			damage: func(t *testing.T, d string) {
				if err := os.Rename(filepath.Join(d, ShardDirName(1)), filepath.Join(d, "aside")); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "journal.log", seeded: 1, request: 1, want: "000000000001.seg",
			damage: func(t *testing.T, d string) {
				if err := os.WriteFile(filepath.Join(d, "journal.log"), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "interrupted reshard", seeded: 4, request: 4, want: "interrupted",
			damage: func(t *testing.T, d string) { mkdir(t, filepath.Join(d, ReshardTempName)) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dataDir, _ := seedDataDir(t, tc.seeded)
			if tc.damage != nil {
				tc.damage(t, dataDir)
			}
			before := treeDigest(t, dataDir)

			_, err := OpenShardWALs(dataDir, tc.request)
			if !errors.Is(err, ErrLayoutMismatch) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("OpenShardWALs = %v, want ErrLayoutMismatch naming %q", err, tc.want)
			}
			// The destructive half refuses on its own too, for callers that
			// restore without opening WALs first.
			files, err := blob.NewFileStore(filepath.Join(dataDir, "blobs"))
			if err != nil {
				t.Fatalf("NewFileStore: %v", err)
			}
			t.Cleanup(func() { files.Close() })
			srv, err := New(EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}, Shards: tc.request},
				WithBlobStore(files), WithLogger(quietLogger()))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if _, err := srv.RestoreDir(dataDir); !errors.Is(err, ErrLayoutMismatch) {
				t.Errorf("RestoreDir = %v, want ErrLayoutMismatch", err)
			}
			if after := treeDigest(t, dataDir); after != before {
				t.Error("the refused data dir was modified")
			}
		})
	}
}

// TestMatchingAndFreshLayoutsOpen: the guard lets through exactly what it
// should -- a fresh directory at any shard count, a missing directory, and
// a directory reopened at the count that wrote it, with every resident back.
func TestMatchingAndFreshLayoutsOpen(t *testing.T) {
	for _, shards := range []int{1, 4} {
		dataDir, ids := seedDataDir(t, shards)
		if got, err := DiscoverShards(dataDir); err != nil || got != shards {
			t.Errorf("DiscoverShards(%d-shard dir) = %d, %v", shards, got, err)
		}
		srv, err := openAndRestore(t, dataDir, shards)
		if err != nil {
			t.Fatalf("reopen at %d shards: %v", shards, err)
		}
		if srv.engine.Len() != len(ids) {
			t.Errorf("%d shards: recovered %d residents, want %d", shards, srv.engine.Len(), len(ids))
		}
		for _, id := range ids {
			if res, ok := srv.execute(&wire.Get{ID: id}).(*wire.ObjectMsg); !ok || len(res.Payload) != 128 {
				t.Errorf("%d shards: get %s after reopen = %T", shards, id, srv.execute(&wire.Get{ID: id}))
			}
		}

		fresh := filepath.Join(t.TempDir(), "not-yet-there")
		if got, err := DiscoverShards(fresh); err != nil || got != 0 {
			t.Errorf("DiscoverShards(missing dir) = %d, %v; want 0, nil", got, err)
		}
		if _, err := openAndRestore(t, fresh, shards); err != nil {
			t.Errorf("fresh dir at %d shards: %v", shards, err)
		}
	}
}

// TestRestoreLeavesDirUnmodified: recovering a cleanly shut down data dir
// reads it and changes nothing -- no renames, no new directories, the same
// segment bytes.
func TestRestoreLeavesDirUnmodified(t *testing.T) {
	for _, shards := range []int{1, 4} {
		dataDir, ids := seedDataDir(t, shards)
		before := treeDigest(t, dataDir)
		rec, err := New(EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}, Shards: shards},
			WithLogger(quietLogger()))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := rec.RestoreDir(dataDir); err != nil {
			t.Fatalf("RestoreDir: %v", err)
		}
		if rec.engine.Len() != len(ids) {
			t.Errorf("%d shards: recovered %d residents, want %d", shards, rec.engine.Len(), len(ids))
		}
		if after := treeDigest(t, dataDir); after != before {
			t.Errorf("%d shards: recovery modified the data dir", shards)
		}
	}
}

// TestJournalBytesPinned: the segment and checkpoint bytes a fixed op stream
// leaves behind -- single appends, batches, evictions, a coordinated
// checkpoint mid-way -- are pinned to digests recorded before the legacy
// journal paths were removed (commit 6df702e), at one shard and at four.
func TestJournalBytesPinned(t *testing.T) {
	for shards, want := range map[int]string{
		1: "4f7a5f889c6c2ca33bac25c0966d503637fe8c9fe2ee7aba03e377d05cfd976c",
		4: "bb6ff0803fa51abc5d1f54ac870db8a1f8e06215d071caf39b43759482bfd1f9",
	} {
		dataDir := t.TempDir()
		wals, err := OpenShardWALs(dataDir, shards, journal.WithSegmentBytes(crashSegBytes))
		if err != nil {
			t.Fatalf("OpenShardWALs: %v", err)
		}
		clock := &manualClock{}
		srv, err := New(EngineConfig{Capacity: crashCapacity, Policy: policy.TemporalImportance{}, Shards: shards},
			WithClock(clock.Now), WithWALs(wals), WithLogger(quietLogger()))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		shardedCrashWorkload(srv, clock, func() {
			if _, err := srv.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		})
		for _, w := range wals {
			if err := w.Close(); err != nil {
				t.Fatalf("wal close: %v", err)
			}
		}
		if got := treeDigest(t, dataDir); got != want {
			t.Errorf("%d shard(s): journal bytes digest %s, want %s", shards, got, want)
		}
	}
}
