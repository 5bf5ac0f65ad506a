package journal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestCheckpointClaimedCountIsBounded: a checkpoint header whose CRC holds
// but whose object count its bytes cannot hold is refused before anything
// is allocated for that count. Every object is a frame of at least 8 bytes.
func TestCheckpointClaimedCountIsBounded(t *testing.T) {
	hdr := binary.BigEndian.AppendUint64(nil, 0)    // covers
	hdr = binary.BigEndian.AppendUint64(hdr, 0)     // resume
	hdr = binary.BigEndian.AppendUint32(hdr, 1<<20) // count
	hdr = binary.BigEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	path := filepath.Join(t.TempDir(), "checkpoint-000000000000.ckpt")
	if err := os.WriteFile(path, append(append([]byte(nil), ckptMagic...), hdr...), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadCheckpoint(path)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadCheckpoint of a 32-byte file claiming 2^20 objects = %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("ReadCheckpoint allocated %d bytes for a 32-byte file, want <= 64 KiB", got)
	}
}
