package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/importance"
	"besteffs/internal/journal"
	"besteffs/internal/object"
	"besteffs/internal/server"
)

// buildDataDir lays down a small but complete node data directory: payload
// files, two sealed WAL segments plus an active one, and one checkpoint.
func buildDataDir(t *testing.T) string {
	t.Helper()
	dataDir := t.TempDir()
	files, err := blob.NewFileStore(filepath.Join(dataDir, "blobs"))
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	t.Cleanup(func() { files.Close() })
	walDir := filepath.Join(dataDir, server.WALDirName)
	wal, err := journal.OpenWAL(walDir, journal.WithSegmentBytes(96))
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	imp := importance.Constant{Level: 0.9}
	for i, id := range []string{"alpha", "beta", "gamma", "delta"} {
		if err := files.Put(object.ID(id), []byte("payload of "+id)); err != nil {
			t.Fatalf("blob put: %v", err)
		}
		if err := wal.Append(journal.Record{
			Kind: journal.KindPut, At: time.Duration(i) * time.Hour,
			ID: object.ID(id), Size: int64(len("payload of " + id)),
			Importance: imp,
		}); err != nil {
			t.Fatalf("wal append: %v", err)
		}
	}
	// One checkpoint covering the first records, then more history.
	sealed, err := wal.Barrier()
	if err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	cp := journal.Checkpoint{CoversSeq: sealed, Resume: 4 * time.Hour}
	for _, id := range []string{"alpha", "beta", "gamma", "delta"} {
		o, err := object.New(object.ID(id), int64(len("payload of "+id)), 0, imp)
		if err != nil {
			t.Fatalf("object.New: %v", err)
		}
		cp.Objects = append(cp.Objects, journal.ObjectRecord(o))
	}
	if err := journal.WriteCheckpoint(walDir, cp); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if err := wal.Append(journal.Record{
		Kind: journal.KindRejuvenate, At: 5 * time.Hour, ID: "beta",
		Importance: importance.Constant{Level: 0.4},
	}); err != nil {
		t.Fatalf("wal append: %v", err)
	}
	if err := wal.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}
	return dataDir
}

func TestFsckCleanDirPasses(t *testing.T) {
	dataDir := buildDataDir(t)
	var out bytes.Buffer
	if err := cmdFsck(dataDir, &out); err != nil {
		t.Fatalf("fsck on clean dir: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "fsck: clean") {
		t.Errorf("missing clean verdict:\n%s", out.String())
	}
}

// flipByte flips one byte of a file in place.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if off < 0 {
		off += int64(len(raw))
	}
	raw[off] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
}

func TestFsckDetectsFlippedByteInSegment(t *testing.T) {
	dataDir := buildDataDir(t)
	walDir := filepath.Join(dataDir, server.WALDirName)
	// The checkpoint covers segments 1-4, so the next boot reads only 5.
	// A second record there makes a flipped byte in its first one
	// corruption, not a torn tail.
	wal, err := journal.OpenWAL(walDir, journal.WithSegmentBytes(96))
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if err := wal.Append(journal.Record{Kind: journal.KindDelete, At: 6 * time.Hour, ID: "gamma"}); err != nil {
		t.Fatalf("wal append: %v", err)
	}
	if err := wal.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}
	segs, err := filepath.Glob(filepath.Join(walDir, "*.seg"))
	if err != nil || len(segs) != 5 {
		t.Fatalf("segments = %v, %v; want 5", segs, err)
	}
	flipByte(t, filepath.Join(walDir, journal.Segments.Name(5)), 20)

	var out bytes.Buffer
	err = cmdFsck(dataDir, &out)
	if err == nil {
		t.Fatalf("fsck passed a corrupt segment:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "DAMAGE") || !strings.Contains(out.String(), "segment") {
		t.Errorf("report does not name the damaged segment:\n%s", out.String())
	}
}

func TestFsckDetectsFlippedByteInBlob(t *testing.T) {
	dataDir := buildDataDir(t)
	segs, err := filepath.Glob(filepath.Join(dataDir, "blobs", "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("payload segments = %v, %v; want 1", segs, err)
	}
	// Flip the last byte of the segment: inside the last record's payload.
	flipByte(t, segs[0], -1)

	var out bytes.Buffer
	err = cmdFsck(dataDir, &out)
	if err == nil {
		t.Fatalf("fsck passed a corrupt blob:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "DAMAGE") || !strings.Contains(out.String(), "blob delta") {
		t.Errorf("report does not name the damaged blob:\n%s", out.String())
	}
}

// TestFsckSumsUpUnreferencedRecords: records no resident references -- what
// every eviction leaves in a log without tombstones -- are one summary
// line, not a warning each; a resident whose record is unreadable is the
// warning.
func TestFsckSumsUpUnreferencedRecords(t *testing.T) {
	dataDir := buildDataDir(t)
	files, err := blob.NewFileStore(filepath.Join(dataDir, "blobs"))
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	t.Cleanup(func() { files.Close() })
	for _, id := range []object.ID{"evicted/1", "evicted/2"} {
		if err := files.Put(id, []byte("a record the journal never mentions")); err != nil {
			t.Fatalf("blob put: %v", err)
		}
	}
	var out bytes.Buffer
	if err := cmdFsck(dataDir, &out); err != nil {
		t.Fatalf("fsck: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "2 record(s) no resident references") || strings.Contains(out.String(), "warning") {
		t.Errorf("report does not sum up the unreferenced records:\n%s", out.String())
	}

	// Cut the first segment inside its second record: beta, gamma and delta
	// lose their payloads, alpha keeps its own.
	segs, err := filepath.Glob(filepath.Join(dataDir, "blobs", "*.seg"))
	if err != nil || len(segs) != 2 {
		t.Fatalf("payload segments = %v, %v; want 2", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.Index(raw, []byte("payload of beta"))
	if cut < 0 {
		t.Fatal("beta's payload not found in the first segment")
	}
	if err := os.Truncate(segs[0], int64(cut+3)); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := cmdFsck(dataDir, &out); err != nil {
		t.Fatalf("fsck over a torn payload segment: %v\n%s", err, out.String())
	}
	for _, id := range []string{"beta", "gamma", "delta"} {
		if !strings.Contains(out.String(), "warning: resident "+id+" has no readable payload record") {
			t.Errorf("report does not warn about %s:\n%s", id, out.String())
		}
	}
	if strings.Contains(out.String(), "resident alpha") {
		t.Errorf("report warns about the intact alpha:\n%s", out.String())
	}
}

func TestFsckDetectsDamagedCheckpoint(t *testing.T) {
	dataDir := buildDataDir(t)
	walDir := filepath.Join(dataDir, server.WALDirName)
	ckpts, err := filepath.Glob(filepath.Join(walDir, "checkpoint-*.ckpt"))
	if err != nil || len(ckpts) != 1 {
		t.Fatalf("checkpoints = %v, %v; want 1", ckpts, err)
	}
	flipByte(t, ckpts[0], 30)

	var out bytes.Buffer
	err = cmdFsck(dataDir, &out)
	if err == nil {
		t.Fatalf("fsck passed a damaged checkpoint:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "checkpoint") {
		t.Errorf("report does not name the checkpoint:\n%s", out.String())
	}
}

func TestFsckTornTailIsNotDamage(t *testing.T) {
	dataDir := buildDataDir(t)
	walDir := filepath.Join(dataDir, server.WALDirName)
	segs, err := filepath.Glob(filepath.Join(walDir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	// Tear the newest segment mid-record: the defined post-crash state.
	newest := segs[len(segs)-1]
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if err := os.WriteFile(newest, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	var out bytes.Buffer
	if err := cmdFsck(dataDir, &out); err != nil {
		t.Fatalf("fsck failed on a torn tail: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "torn tail") {
		t.Errorf("report does not mention the torn tail:\n%s", out.String())
	}
}

// buildShardedDataDir is the data directory a 4-shard node leaves behind
// after a stop that writes no final checkpoint: one WAL holding every
// shard's records -- a checkpoint, then sealed segments and an active one --
// and the payload log.
func buildShardedDataDir(t *testing.T) string {
	t.Helper()
	dataDir := t.TempDir()
	n, err := bootNode(t, dataDir, 4)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	for i := 0; i < 16; i++ {
		put(t, n.c, object.ID(fmt.Sprintf("obj-%02d", i)), []byte("payload"))
		if i == 7 {
			if _, err := n.srv.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	for i := 0; i < 4; i++ {
		if got := n.srv.Engine().Shard(i).Len(); got == 0 {
			t.Fatalf("shard %d holds nothing; the dir must hold every shard's records", i)
		}
	}
	n.stop(false)
	return dataDir
}

func TestFsckShardedCleanDirPasses(t *testing.T) {
	dataDir := buildShardedDataDir(t)
	var out bytes.Buffer
	if err := cmdFsck(dataDir, &out); err != nil {
		t.Fatalf("fsck on clean sharded dir: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "fsck: clean") {
		t.Errorf("missing clean verdict:\n%s", out.String())
	}
	// Every shard's residents are cross-checked against the payload log.
	if !strings.Contains(out.String(), "16 payload(s) verified, 0 corrupt") {
		t.Errorf("report does not verify all 16 residents:\n%s", out.String())
	}
}

func TestFsckShardedDetectsCorruptShardSegment(t *testing.T) {
	dataDir := buildShardedDataDir(t)
	// Flip a record byte in a sealed segment of the shared WAL.
	walDir := filepath.Join(dataDir, server.WALDirName)
	segs, err := filepath.Glob(filepath.Join(walDir, "*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("segments = %v, %v; want >= 2", segs, err)
	}
	flipByte(t, segs[0], 20)

	var out bytes.Buffer
	err = cmdFsck(dataDir, &out)
	if err == nil {
		t.Fatalf("fsck passed a corrupt shard segment:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "DAMAGE") || !strings.Contains(out.String(), "segment") {
		t.Errorf("report does not name the damaged segment:\n%s", out.String())
	}
}

// TestFsckRefusesOldLayout: a directory holding an older build's per-shard
// stream fails the check as the daemon refuses it, instead of passing with
// those residents' payloads counted as unreferenced.
func TestFsckRefusesOldLayout(t *testing.T) {
	dataDir := buildDataDir(t)
	if err := os.MkdirAll(filepath.Join(dataDir, "shard-000", server.WALDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cmdFsck(dataDir, io.Discard); !errors.Is(err, server.ErrLayoutMismatch) {
		t.Errorf("fsck over a shard-000/ stream = %v, want ErrLayoutMismatch", err)
	}
}

// TestFsckDetectsMissingSegment: a WAL whose numbering has a hole -- twelve
// segments, the seventh gone -- lost the history that segment held, which
// the next boot refuses; fsck reports it as damage.
func TestFsckDetectsMissingSegment(t *testing.T) {
	dataDir := t.TempDir()
	walDir := filepath.Join(dataDir, server.WALDirName)
	wal, err := journal.OpenWAL(walDir, journal.WithSegmentBytes(1)) // one record per segment
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	for i := 1; i <= 12; i++ {
		if err := wal.Append(journal.Record{
			Kind: journal.KindPut, At: time.Duration(i) * time.Hour,
			ID: object.ID(fmt.Sprintf("obj-%02d", i)), Size: 10,
			Importance: importance.Constant{Level: 0.9},
		}); err != nil {
			t.Fatalf("wal append: %v", err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}
	if err := os.Remove(filepath.Join(walDir, "000000000007.seg")); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err = cmdFsck(dataDir, &out)
	if err == nil {
		t.Fatalf("fsck passed a WAL missing segment 7:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "DAMAGE") || !strings.Contains(out.String(), "7") {
		t.Errorf("report does not name the missing segment:\n%s", out.String())
	}
}

// TestFsckCoveredSegmentIsNotDamage: a damaged WAL segment that the newest
// valid checkpoint covers is never read at boot -- a kill between writing a
// checkpoint and pruning the segments it covers leaves such segments -- so
// fsck reports it as covered, not as damage, and still replays the WAL and
// cross-checks every resident's payload.
func TestFsckCoveredSegmentIsNotDamage(t *testing.T) {
	dataDir := buildDataDir(t)
	walDir := filepath.Join(dataDir, server.WALDirName)
	var out bytes.Buffer
	if err := cmdFsck(dataDir, &out); err != nil || !strings.Contains(out.String(), "covers segment 4") {
		t.Fatalf("want a clean directory with a checkpoint covering segment 4: %v\n%s", err, out.String())
	}
	seg := journal.Segments.Name(1)
	flipByte(t, filepath.Join(walDir, seg), 20)

	out.Reset()
	if err := cmdFsck(dataDir, &out); err != nil {
		t.Fatalf("fsck failed on a segment the checkpoint covers: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{seg + ": damaged", "covered by the checkpoint", "4 payload(s) verified, 0 corrupt", "fsck: clean"} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "DAMAGE") {
		t.Errorf("report calls a covered segment damage:\n%s", report)
	}
}

// TestFsckCreatesNoBlobDir: fsck changes nothing on disk, so a directory
// holding only wal/ is left without a blobs/ directory; every resident is
// reported without a payload, as the next boot would drop it.
func TestFsckCreatesNoBlobDir(t *testing.T) {
	dataDir := buildDataDir(t)
	blobDir := filepath.Join(dataDir, server.BlobDirName)
	if err := os.RemoveAll(blobDir); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := cmdFsck(dataDir, &out); err != nil {
		t.Fatalf("fsck: %v\n%s", err, out.String())
	}
	if _, err := os.Stat(blobDir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("fsck left %s behind (stat: %v)", blobDir, err)
	}
	for _, id := range []string{"alpha", "beta", "gamma", "delta"} {
		if !strings.Contains(out.String(), "warning: resident "+id+" has no readable payload record") {
			t.Errorf("report does not warn about %s:\n%s", id, out.String())
		}
	}
}
