package server

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/importance"
	"besteffs/internal/journal"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/wire"
)

// The recovery damage rules, one row each. Only the newest segment's torn
// final record is repaired, and it is reported once however recovery meets
// it; every other fault -- a damaged segment, a hole in the segment
// numbering above the base recovery starts from -- is refused with
// ErrCorrupt. New segments are numbered above every checkpoint, and the
// numbered-file names are pinned.

// singleRecordSegments writes n puts into a WAL under dataDir, one record
// per segment, so the WAL ends with segments 1..n, n the active one.
func singleRecordSegments(t *testing.T, dataDir string, n int) {
	t.Helper()
	wal, err := journal.OpenWAL(filepath.Join(dataDir, WALDirName), journal.WithSegmentBytes(1))
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	for i := 1; i <= n; i++ {
		if err := wal.Append(journal.Record{
			Kind: journal.KindPut, At: time.Duration(i) * time.Hour, ID: object.ID(fmt.Sprintf("obj-%02d", i)),
			Size: 100, Version: 1, Importance: importance.Constant{Level: 0.5},
		}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// walSegment is the path of WAL segment seq under dataDir.
func walSegment(dataDir string, seq int) string {
	return filepath.Join(dataDir, WALDirName, fmt.Sprintf("%012d.seg", seq))
}

// restoreInto recovers dataDir into a fresh node that journals into wal
// (nil: the crash harness's order, no WAL open) and logs into log.
func restoreInto(t *testing.T, dataDir string, wal *journal.WAL, log *bytes.Buffer) (*Server, RestoreStats, error) {
	t.Helper()
	opts := []Option{WithLogger(slog.New(slog.NewTextHandler(log, nil)))}
	if wal != nil {
		opts = append(opts, WithWAL(wal))
	}
	srv, err := New(EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}}, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stats, err := srv.RestoreDir(dataDir)
	return srv, stats, err
}

// tearNewest appends the first 7 bytes of segment 1's first frame to the
// newest of n segments: a frame a crash cut short.
func tearNewest(t *testing.T, dataDir string, n int) {
	t.Helper()
	first, err := os.ReadFile(walSegment(dataDir, 1))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(walSegment(dataDir, n), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(first[:7]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkTornOnce wants a 7-byte torn tail in the stats, the status JSON and
// exactly one warning.
func checkTornOnce(t *testing.T, srv *Server, stats RestoreStats, log *bytes.Buffer) {
	t.Helper()
	if stats.TornTailBytes != 7 || stats.Records != 3 {
		t.Errorf("restored %d records, torn tail %d bytes; want 3 records and 7 bytes", stats.Records, stats.TornTailBytes)
	}
	if rec := srv.StatusSnapshot().Recovery; rec == nil || rec.TornTailBytes != 7 {
		t.Errorf("status recovery = %+v, want torn_tail_bytes 7", rec)
	}
	if n := strings.Count(log.String(), "torn journal tail"); n != 1 {
		t.Errorf("torn tail warned %d times, want once:\n%s", n, log.String())
	}
}

// flip flips the byte at off (from the end when negative) of path.
func flip(t *testing.T, path string, off int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += len(raw)
	}
	raw[off] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryDamageRules(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, dataDir string)
	}{
		{"torn tail in besteffsd's order", func(t *testing.T, dataDir string) {
			singleRecordSegments(t, dataDir, 3)
			tearNewest(t, dataDir, 3)
			wal, err := OpenWAL(dataDir)
			if err != nil {
				t.Fatalf("OpenWAL over a torn tail: %v", err)
			}
			defer wal.Close()
			var log bytes.Buffer
			srv, stats, err := restoreInto(t, dataDir, wal, &log)
			if err != nil {
				t.Fatalf("RestoreDir: %v", err)
			}
			checkTornOnce(t, srv, stats, &log)
		}},
		{"torn tail through RestoreDir alone", func(t *testing.T, dataDir string) {
			singleRecordSegments(t, dataDir, 3)
			tearNewest(t, dataDir, 3)
			var log bytes.Buffer
			srv, stats, err := restoreInto(t, dataDir, nil, &log)
			if err != nil {
				t.Fatalf("RestoreDir: %v", err)
			}
			checkTornOnce(t, srv, stats, &log)
		}},
		{"missing segment", func(t *testing.T, dataDir string) {
			singleRecordSegments(t, dataDir, 12)
			if err := os.Remove(walSegment(dataDir, 7)); err != nil {
				t.Fatal(err)
			}
			_, stats, err := restoreInto(t, dataDir, nil, new(bytes.Buffer))
			if !errors.Is(err, journal.ErrCorrupt) || !strings.Contains(fmt.Sprint(err), "segments 7-7") {
				t.Errorf("RestoreDir without segment 7 = %v after %d records, want ErrCorrupt naming segments 7-7",
					err, stats.Records)
			}
		}},
		{"rotten sole checkpoint", func(t *testing.T, dataDir string) {
			wal, err := OpenWAL(dataDir, journal.WithSegmentBytes(crashSegBytes))
			if err != nil {
				t.Fatalf("OpenWAL: %v", err)
			}
			clock := &manualClock{}
			srv, err := New(EngineConfig{Capacity: crashCapacity, Policy: policy.TemporalImportance{}},
				WithClock(clock.Now), WithWAL(wal), WithLogger(quietLogger()))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			two := importance.TwoStep{Plateau: 0.9, Persist: 10 * day, Wane: 10 * day}
			for _, id := range []object.ID{"a", "b", "c", "d", "e"} {
				srv.execute(&wire.Put{ID: id, Importance: two, Payload: make([]byte, 256)})
				clock.Advance(time.Hour)
			}
			cp, err := srv.Checkpoint()
			if err != nil || cp.SegmentsRemoved != 3 {
				t.Fatalf("Checkpoint = %+v, %v; want 3 segments removed", cp, err)
			}
			srv.execute(&wire.Put{ID: "f", Importance: two, Payload: make([]byte, 256)})
			if err := wal.Close(); err != nil {
				t.Fatal(err)
			}
			flip(t, journal.CheckpointPath(filepath.Join(dataDir, WALDirName), cp.Seq), -2)
			rec, stats, err := restoreInto(t, dataDir, nil, new(bytes.Buffer))
			if !errors.Is(err, journal.ErrCorrupt) || !strings.Contains(fmt.Sprint(err), "segments 1-3") {
				t.Errorf("RestoreDir over a rotten sole checkpoint = %v with %d residents, want ErrCorrupt naming segments 1-3",
					err, rec.engine.Len())
			}
			if stats.CheckpointsSkipped != 1 {
				t.Errorf("%d checkpoints skipped, want 1", stats.CheckpointsSkipped)
			}
		}},
		{"only a checkpoint covering 9 remains", func(t *testing.T, dataDir string) {
			walDir := filepath.Join(dataDir, WALDirName)
			if err := os.MkdirAll(walDir, 0o755); err != nil {
				t.Fatal(err)
			}
			o, err := object.New("kept", 100, 0, importance.Constant{Level: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			if err := journal.WriteCheckpoint(walDir, journal.Checkpoint{
				CoversSeq: 9, Objects: []journal.Record{journal.ObjectRecord(o)},
			}); err != nil {
				t.Fatal(err)
			}
			wal, err := OpenWAL(dataDir)
			if err != nil {
				t.Fatalf("OpenWAL: %v", err)
			}
			srv, _, err := restoreInto(t, dataDir, wal, new(bytes.Buffer))
			if err != nil {
				t.Fatalf("RestoreDir: %v", err)
			}
			srv.execute(&wire.Put{ID: "young", Importance: importance.Constant{Level: 0.5}, Payload: make([]byte, 100)})
			if err := wal.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(walSegment(dataDir, 10)); err != nil {
				t.Errorf("OpenWAL did not start at segment 10: %v", err)
			}
			rec, stats, err := restoreInto(t, dataDir, nil, new(bytes.Buffer))
			if err != nil || stats.Records != 1 || rec.engine.Len() != 2 {
				t.Errorf("restart = %v, %d records, %d residents; want the put above the checkpoint replayed, 2 residents",
					err, stats.Records, rec.engine.Len())
			}
		}},
		{"corrupt record before valid ones in the newest segment", func(t *testing.T, dataDir string) {
			wal, err := OpenWAL(dataDir)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}},
				WithWAL(wal), WithLogger(quietLogger()))
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []object.ID{"a", "b", "c"} {
				srv.execute(&wire.Put{ID: id, Importance: importance.Constant{Level: 0.5}, Payload: make([]byte, 100)})
			}
			if err := wal.Close(); err != nil {
				t.Fatal(err)
			}
			flip(t, walSegment(dataDir, 1), 12) // inside the first record's body
			if _, err := OpenWAL(dataDir); !errors.Is(err, journal.ErrCorrupt) {
				t.Errorf("OpenWAL = %v, want ErrCorrupt", err)
			}
			if _, _, err := restoreInto(t, dataDir, nil, new(bytes.Buffer)); !errors.Is(err, journal.ErrCorrupt) {
				t.Errorf("RestoreDir = %v, want ErrCorrupt", err)
			}
		}},
		{"flipped byte in a sealed segment", func(t *testing.T, dataDir string) {
			singleRecordSegments(t, dataDir, 3)
			flip(t, walSegment(dataDir, 2), -1)
			wal, err := OpenWAL(dataDir) // reads only the newest segment
			if err != nil {
				t.Fatalf("OpenWAL: %v", err)
			}
			defer wal.Close()
			if _, _, err := restoreInto(t, dataDir, wal, new(bytes.Buffer)); !errors.Is(err, journal.ErrCorrupt) {
				t.Errorf("RestoreDir = %v, want ErrCorrupt", err)
			}
		}},
		{"numbered file names", func(t *testing.T, dataDir string) {
			walDir := filepath.Join(dataDir, WALDirName)
			singleRecordSegments(t, dataDir, 1)
			if err := journal.WriteCheckpoint(walDir, journal.Checkpoint{}); err != nil {
				t.Fatal(err)
			}
			// A segment numbered 0 is not a segment: replay never reads it.
			raw, err := os.ReadFile(walSegment(dataDir, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walSegment(dataDir, 0), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			cp, _, err := journal.LoadLatestCheckpoint(walDir)
			if err != nil || cp.CoversSeq != 0 {
				t.Errorf("checkpoint-000000000000.ckpt loads as %d, %v; want covering 0", cp.CoversSeq, err)
			}
			st, err := journal.ReplayWAL(walDir, 0, func(journal.Record) error { return nil })
			if err != nil || st.Segments != 1 || st.FirstSeq != 1 || st.Records != 1 {
				t.Errorf("replay = %+v, %v; want 000000000001.seg alone, one record", st, err)
			}
			files, err := blob.NewFileStore(filepath.Join(dataDir, "blobs"))
			if err != nil {
				t.Fatal(err)
			}
			defer files.Close()
			if err := files.Put("x", []byte("payload")); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				filepath.Join(walDir, "checkpoint-000000000000.ckpt"),
				filepath.Join(walDir, "000000000001.seg"),
				filepath.Join(dataDir, "blobs", "000000000001.seg"),
			} {
				if _, err := os.Stat(want); err != nil {
					t.Errorf("%s: %v", want, err)
				}
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { row.run(t, t.TempDir()) })
	}
}
