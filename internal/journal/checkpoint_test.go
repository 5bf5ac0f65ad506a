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
// The largest count the header can hold must not wrap to a negative int
// where int is 32 bits wide.
func TestCheckpointClaimedCountIsBounded(t *testing.T) {
	for _, count := range []uint32{1 << 20, 1<<32 - 1} {
		hdr := binary.BigEndian.AppendUint64(nil, 0) // covers
		hdr = binary.BigEndian.AppendUint64(hdr, 0)  // resume
		hdr = binary.BigEndian.AppendUint32(hdr, count)
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
			t.Errorf("ReadCheckpoint of a 32-byte file claiming %d objects = %v, want ErrCorrupt", count, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("ReadCheckpoint allocated %d bytes for a 32-byte file claiming %d objects, want <= 64 KiB", got, count)
		}
	}
}

// TestScanFramesRefusesHostileLength: a frame whose length field claims
// more than a record may hold ends the valid prefix there, as damage,
// whatever the length: 0xFFFFFFF0 must not wrap to a negative int where
// int is 32 bits wide.
func TestScanFramesRefusesHostileLength(t *testing.T) {
	for _, length := range []uint32{maxRecordSize + 1, 0xFFFFFFF0} {
		data := binary.BigEndian.AppendUint32(nil, length)
		data = binary.BigEndian.AppendUint32(data, 0) // checksum
		data = append(data, make([]byte, 64)...)
		valid, records, damaged := scanFrames(data, nil)
		if valid != 0 || records != 0 || !damaged {
			t.Errorf("length %#x: scanFrames = %d bytes, %d records, damaged %t; want 0, 0, true",
				length, valid, records, damaged)
		}
	}
}
