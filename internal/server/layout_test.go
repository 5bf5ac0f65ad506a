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
// file blobs, the WAL, eight objects, one of them deleted again -- and shuts
// it down cleanly. It returns the data dir and the surviving IDs.
func seedDataDir(t *testing.T, shards int) (string, []object.ID) {
	t.Helper()
	dataDir := t.TempDir()
	wal, err := OpenWAL(dataDir, journal.WithSegmentBytes(crashSegBytes))
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	files, err := blob.NewFileStore(filepath.Join(dataDir, "blobs"))
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	t.Cleanup(func() { files.Close() })
	srv, err := New(EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}, Shards: shards},
		WithWAL(wal), WithBlobStore(files), WithLogger(quietLogger()))
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
	if err := wal.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}
	return dataDir, ids[1:]
}

// openAndRestore is a daemon boot: open the WAL, then recover from the
// directory at the given shard count.
func openAndRestore(t *testing.T, dataDir string, shards int) (*Server, error) {
	t.Helper()
	wal, err := OpenWAL(dataDir, journal.WithSegmentBytes(crashSegBytes))
	if err != nil {
		return nil, err
	}
	t.Cleanup(func() { wal.Close() })
	files, err := blob.NewFileStore(filepath.Join(dataDir, "blobs"))
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	t.Cleanup(func() { files.Close() })
	srv, err := New(EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}, Shards: shards},
		WithWAL(wal), WithBlobStore(files), WithLogger(quietLogger()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, err = srv.RestoreDir(dataDir)
	return srv, err
}

// TestLayoutMismatchRefusedUntouched: a data dir holding what an older
// layout wrote -- per-shard shard-NNN/ streams, alone or beside wal/, a
// pre-WAL journal.log, the reshard.tmp of an interrupted reshard -- is
// refused with ErrLayoutMismatch by both halves of a boot at any shard
// count, the error names what was found, and not one byte of the dir --
// the payloads reconciliation would delete as orphans least of all --
// changes.
func TestLayoutMismatchRefusedUntouched(t *testing.T) {
	mkdir := func(t *testing.T, path string) {
		if err := os.MkdirAll(path, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// perShard rewrites the dir as an older build laid out n shards: the
	// stream moves to shard-000/wal, the other shards get empty streams.
	perShard := func(n int) func(t *testing.T, d string) {
		return func(t *testing.T, d string) {
			mkdir(t, filepath.Join(d, "shard-000"))
			if err := os.Rename(filepath.Join(d, WALDirName), filepath.Join(d, "shard-000", WALDirName)); err != nil {
				t.Fatal(err)
			}
			for i := 1; i < n; i++ {
				mkdir(t, filepath.Join(d, fmt.Sprintf("shard-%03d", i), WALDirName))
			}
		}
	}
	cases := []struct {
		name    string
		damage  func(t *testing.T, dataDir string)
		request int
		want    string // must appear in the refusal
	}{
		{name: "4 to 2", damage: perShard(4), request: 2, want: "shard-000/"},
		{name: "4 to 1", damage: perShard(4), request: 1, want: "besteffsctl reshard"},
		{name: "mixed", request: 4, want: "shard-000/",
			damage: func(t *testing.T, d string) { mkdir(t, filepath.Join(d, "shard-000", WALDirName)) }},
		{name: "gap", request: 4, want: "shard-001/",
			damage: func(t *testing.T, d string) {
				perShard(2)(t, d)
				if err := os.Rename(filepath.Join(d, "shard-000"), filepath.Join(d, "aside")); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "journal.log", request: 1, want: "000000000001.seg",
			damage: func(t *testing.T, d string) {
				if err := os.WriteFile(filepath.Join(d, "journal.log"), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "interrupted reshard", request: 4, want: "reshard.tmp",
			damage: func(t *testing.T, d string) { mkdir(t, filepath.Join(d, "reshard.tmp")) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dataDir, _ := seedDataDir(t, 1)
			tc.damage(t, dataDir)
			before := treeDigest(t, dataDir)

			_, err := OpenWAL(dataDir)
			if !errors.Is(err, ErrLayoutMismatch) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("OpenWAL = %v, want ErrLayoutMismatch naming %q", err, tc.want)
			}
			// The destructive half refuses on its own too, for callers that
			// restore without opening the WAL first.
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

// TestMatchingAndFreshLayoutsOpen: the layout check lets through exactly
// what it should -- a fresh directory at any shard count, a missing
// directory, and a directory reopened at the count that wrote it, with every
// resident back.
func TestMatchingAndFreshLayoutsOpen(t *testing.T) {
	for _, shards := range []int{1, 4} {
		dataDir, ids := seedDataDir(t, shards)
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
		if err := RefuseOldLayout(fresh); err != nil {
			t.Errorf("RefuseOldLayout(missing dir) = %v", err)
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
// checkpoint mid-way -- are pinned at one shard and at four. The 1-shard
// digest was recorded before the legacy journal paths were removed (commit
// 6df702e); the 4-shard one when the shards came to share the node's one
// WAL, which changed that layout on purpose.
func TestJournalBytesPinned(t *testing.T) {
	for shards, want := range map[int]string{
		1: "4f7a5f889c6c2ca33bac25c0966d503637fe8c9fe2ee7aba03e377d05cfd976c",
		4: "96b0c90c860f2b2cad4343ca499badee159c76fa9fe745b36288a9c1f90448ae",
	} {
		dataDir := t.TempDir()
		wal, err := OpenWAL(dataDir, journal.WithSegmentBytes(crashSegBytes))
		if err != nil {
			t.Fatalf("OpenWAL: %v", err)
		}
		clock := &manualClock{}
		srv, err := New(EngineConfig{Capacity: crashCapacity, Policy: policy.TemporalImportance{}, Shards: shards},
			WithClock(clock.Now), WithWAL(wal), WithLogger(quietLogger()))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		shardedCrashWorkload(srv, clock, func() {
			if _, err := srv.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		})
		if err := wal.Close(); err != nil {
			t.Fatalf("wal close: %v", err)
		}
		if got := treeDigest(t, dataDir); got != want {
			t.Errorf("%d shard(s): journal bytes digest %s, want %s", shards, got, want)
		}
	}
}
