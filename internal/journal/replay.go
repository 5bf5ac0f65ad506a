package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Torn-tail semantics. A crash can interrupt an append, so the newest
// segment may end in a partial record: replay truncates it silently (that is
// the defined post-crash state, not damage). Everything else is damage. A
// corrupt record with valid records after it cannot have been produced by a
// crash mid-append -- appends are sequential -- so it means bit rot or
// tampering, and replay fails hard with ErrCorrupt rather than silently
// dropping acknowledged history. Sealed segments were fsynced at rotation,
// so any bad frame inside one is likewise a hard fault.

// appendFrame appends r's frame, [u32 length][u32 CRC-32][body], to buf: the
// body is encoded in place behind the header, which is back-filled. It is
// the one writer of what scanFrames reads, for WAL segments and checkpoints
// alike. On an error the slice returned holds buf's bytes alone.
func appendFrame(buf []byte, r Record) ([]byte, error) {
	at := len(buf)
	buf, err := appendBody(append(buf, make([]byte, 8)...), r)
	if err != nil {
		return buf[:at], err
	}
	body := buf[at+8:]
	binary.BigEndian.PutUint32(buf[at:], uint32(len(body)))
	binary.BigEndian.PutUint32(buf[at+4:], crc32.ChecksumIEEE(body))
	return buf, nil
}

// scanFrames walks the framed records in data, invoking fn (when non-nil)
// for each decoded record. It returns the byte length of the valid record
// prefix, the record count, and whether bytes remain past the prefix
// (damaged == torn or corrupt; callers classify which).
func scanFrames(data []byte, fn func(Record)) (valid int64, records int, damaged bool) {
	off := 0
	for {
		if off+8 > len(data) {
			return int64(off), records, off < len(data)
		}
		length := int(binary.BigEndian.Uint32(data[off:]))
		sum := binary.BigEndian.Uint32(data[off+4:])
		if length > maxRecordSize || off+8+length > len(data) {
			return int64(off), records, true
		}
		body := data[off+8 : off+8+length]
		if crc32.ChecksumIEEE(body) != sum {
			return int64(off), records, true
		}
		rec, err := decode(body)
		if err != nil {
			return int64(off), records, true
		}
		if fn != nil {
			fn(rec)
		}
		off += 8 + length
		records++
	}
}

// hasValidFrameAfter reports whether any byte offset past from starts a
// fully valid record frame. It distinguishes a torn tail (random garbage,
// no frame ahead) from a corrupt record sitting in front of good history.
// It is O(n^2) in the damaged suffix, which only exists on the one damaged
// segment being diagnosed.
func hasValidFrameAfter(data []byte, from int64) bool {
	for off := int(from) + 1; off+8 <= len(data); off++ {
		if _, n, _ := scanFrames(data[off:], nil); n > 0 {
			return true
		}
	}
	return false
}

// WALStats summarizes one ReplayWAL pass.
type WALStats struct {
	// Segments is the number of segment files visited.
	Segments int
	// Records is the number of records applied.
	Records int
	// FirstSeq and LastSeq bound the visited segments (0 when none).
	FirstSeq, LastSeq uint64
	// TornTailBytes counts bytes discarded from a torn final record in the
	// newest segment; zero for a cleanly shut-down log.
	TornTailBytes int64
}

// ReplayWAL streams the records of every segment with sequence number
// > afterSeq into fn, in order (afterSeq 0 replays everything). Recovery
// after a checkpoint passes the checkpoint's covered sequence so cost is
// proportional to post-checkpoint history, not total history.
//
// A torn record at the end of the newest segment is skipped silently; any
// other damage -- a bad frame in a sealed segment, or a corrupt record with
// valid records after it -- fails hard with ErrCorrupt. An fn error aborts
// the replay and is returned. Memory use is bounded by one segment.
func ReplayWAL(dir string, afterSeq uint64, fn func(Record) error) (WALStats, error) {
	var stats WALStats
	seqs, err := listSegments(dir)
	if errors.Is(err, os.ErrNotExist) {
		return stats, nil
	}
	if err != nil {
		return stats, err
	}
	var fnErr error
	for i, seq := range seqs {
		if seq <= afterSeq {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, segName(seq)))
		if err != nil {
			return stats, fmt.Errorf("journal: read segment %d: %w", seq, err)
		}
		if stats.FirstSeq == 0 {
			stats.FirstSeq = seq
		}
		stats.LastSeq = seq
		stats.Segments++
		valid, n, damaged := scanFrames(data, func(r Record) {
			if fnErr != nil {
				return
			}
			fnErr = fn(r)
			if fnErr == nil {
				stats.Records++
			}
		})
		if fnErr != nil {
			return stats, fmt.Errorf("journal: replay segment %d record %d: %w", seq, n, fnErr)
		}
		if damaged {
			if i != len(seqs)-1 {
				return stats, fmt.Errorf("%w: sealed segment %d damaged at offset %d",
					ErrCorrupt, seq, valid)
			}
			if hasValidFrameAfter(data, valid) {
				return stats, fmt.Errorf("%w: segment %d has a corrupt record at offset %d followed by valid records",
					ErrCorrupt, seq, valid)
			}
			stats.TornTailBytes = int64(len(data)) - valid
		}
	}
	return stats, nil
}

// Damage classifies what CheckWAL found wrong with a segment.
type Damage int

// Damage kinds.
const (
	// DamageNone means every frame verified.
	DamageNone Damage = iota
	// DamageTornTail means the newest segment ends in a partial record --
	// the expected post-crash state, repaired by truncation at OpenWAL.
	DamageTornTail
	// DamageCorrupt means a record failed verification with history after
	// it, or a sealed segment is damaged at all: real data loss.
	DamageCorrupt
)

// String names the damage kind for reports.
func (d Damage) String() string {
	switch d {
	case DamageNone:
		return "ok"
	case DamageTornTail:
		return "torn tail"
	case DamageCorrupt:
		return "CORRUPT"
	default:
		return fmt.Sprintf("damage(%d)", int(d))
	}
}

// SegmentReport describes one segment for fsck.
type SegmentReport struct {
	// Seq is the segment's sequence number; Path its file.
	Seq  uint64
	Path string
	// Records is the count of valid records; ValidBytes their length;
	// TotalBytes the file size.
	Records    int
	ValidBytes int64
	TotalBytes int64
	// Damage classifies anything past the valid prefix.
	Damage Damage
}

// CheckWAL scans every segment read-only and reports per-segment damage
// without aborting at the first fault -- fsck wants the full picture. The
// records of each segment's valid prefix are streamed into fn (may be nil)
// so callers can rebuild the resident set while scanning.
func CheckWAL(dir string, fn func(Record)) ([]SegmentReport, error) {
	seqs, err := listSegments(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	reports := make([]SegmentReport, 0, len(seqs))
	for i, seq := range seqs {
		path := filepath.Join(dir, segName(seq))
		data, err := os.ReadFile(path)
		if err != nil {
			return reports, fmt.Errorf("journal: read segment %d: %w", seq, err)
		}
		valid, n, damaged := scanFrames(data, fn)
		rep := SegmentReport{
			Seq: seq, Path: path, Records: n,
			ValidBytes: valid, TotalBytes: int64(len(data)),
		}
		if damaged {
			if i == len(seqs)-1 && !hasValidFrameAfter(data, valid) {
				rep.Damage = DamageTornTail
			} else {
				rep.Damage = DamageCorrupt
			}
		}
		reports = append(reports, rep)
	}
	return reports, nil
}
