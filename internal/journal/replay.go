package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// The damage rule. A crash can interrupt an append, so the newest segment
// may end in a partial record: recovery drops it (OpenWAL truncates it), as
// the defined post-crash state, not damage. Everything else is damage and
// refused with ErrCorrupt rather than silently dropping acknowledged
// history. A corrupt record with valid records after it cannot have been
// produced by a crash mid-append -- appends are sequential -- so it means
// bit rot or tampering; sealed segments were fsynced at rotation, so any bad
// frame inside one is a hard fault; and segments above the base recovery
// starts from (a checkpoint's covered segment, or 0) must run base+1,
// base+2, ... with no hole, since a missing segment held history. Below the
// base holes are harmless: a kill while pruning covered segments leaves
// some. readSegment classifies a segment and walk applies the rule, for
// OpenWAL, ReplayWAL and CheckWAL alike.

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
		// The length is bounded before it becomes an int, which would
		// wrap negative past 2^31 where int is 32 bits wide.
		length := binary.BigEndian.Uint32(data[off:])
		sum := binary.BigEndian.Uint32(data[off+4:])
		if length > maxRecordSize || off+8+int(length) > len(data) {
			return int64(off), records, true
		}
		end := off + 8 + int(length)
		body := data[off+8 : end]
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
		off = end
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
// proportional to post-checkpoint history, not total history. Whether the
// first segment replayed is afterSeq+1 is the caller's to check: only it
// knows whether afterSeq is a checkpoint's.
//
// A torn record at the end of the newest segment is skipped; any other
// damage, or a hole in the numbering of the segments replayed, fails with
// ErrCorrupt. An fn error aborts the replay and is returned. Memory use is
// bounded by one segment.
func ReplayWAL(dir string, afterSeq uint64, fn func(Record) error) (WALStats, error) {
	var stats WALStats
	apply := func(r Record) error {
		if err := fn(r); err != nil {
			return err
		}
		stats.Records++
		return nil
	}
	err := walk(dir, afterSeq, afterSeq, apply, func(rep SegmentReport) error {
		if err := rep.err(); err != nil {
			return err
		}
		if stats.FirstSeq == 0 {
			stats.FirstSeq = rep.Seq
		}
		stats.LastSeq = rep.Seq
		stats.Segments++
		if rep.Damage == DamageTornTail {
			stats.TornTailBytes = rep.TotalBytes - rep.ValidBytes
		}
		return nil
	})
	return stats, err
}

// Damage classifies what is wrong with a segment's bytes.
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
	// Missing counts the segments absent right below this one, above the
	// base: a hole in the numbering, which is damage too.
	Missing uint64
}

// err is the damage rep describes, wrapped in ErrCorrupt, or nil when
// recovery accepts the segment: clean, or the newest ending in a torn record.
func (r SegmentReport) err() error {
	if r.Missing > 0 {
		return MissingSegments(r.Seq-r.Missing, r.Seq-1)
	}
	if r.Damage == DamageCorrupt {
		return fmt.Errorf("%w: segment %d damaged at offset %d (%d records before the fault)",
			ErrCorrupt, r.Seq, r.ValidBytes, r.Records)
	}
	return nil
}

// MissingSegments is the damage of a hole in the segment numbering: the
// history segments from through to held is gone.
func MissingSegments(from, to uint64) error {
	return fmt.Errorf("%w: WAL segments %d-%d are missing", ErrCorrupt, from, to)
}

// readSegment reads segment seq of dir, streams its valid records into fn
// (when non-nil) and classifies what follows them: nothing, a torn final
// record -- allowed in the newest segment only -- or corruption.
func readSegment(dir string, seq uint64, newest bool, fn func(Record)) (SegmentReport, error) {
	path := filepath.Join(dir, Segments.Name(seq))
	data, err := os.ReadFile(path)
	if err != nil {
		return SegmentReport{}, fmt.Errorf("journal: read segment %d: %w", seq, err)
	}
	valid, n, damaged := scanFrames(data, fn)
	rep := SegmentReport{Seq: seq, Path: path, Records: n, ValidBytes: valid, TotalBytes: int64(len(data))}
	switch {
	case !damaged:
	case newest && !hasValidFrameAfter(data, valid):
		rep.Damage = DamageTornTail
	default:
		rep.Damage = DamageCorrupt
	}
	return rep, nil
}

// walk reads the segments of dir numbered above after, oldest first: it
// streams each one's valid records into fn (when non-nil), notes a hole in
// the numbering above base in front of it, and hands visit its report. An
// error from fn or visit stops the walk and is returned.
func walk(dir string, after, base uint64, fn func(Record) error, visit func(SegmentReport) error) error {
	seqs, err := Segments.List(dir)
	if err != nil {
		return err
	}
	for i, seq := range seqs {
		if seq <= after {
			continue
		}
		var fnErr error
		rep, err := readSegment(dir, seq, i == len(seqs)-1, func(r Record) {
			if fn != nil && fnErr == nil {
				fnErr = fn(r)
			}
		})
		if err != nil {
			return err
		}
		if fnErr != nil {
			return fmt.Errorf("journal: replay segment %d record %d: %w", seq, rep.Records, fnErr)
		}
		if i > 0 {
			if prev := max(base, seqs[i-1]); seq > prev+1 {
				rep.Missing = seq - prev - 1
			}
		}
		if err := visit(rep); err != nil {
			return err
		}
	}
	return nil
}

// CheckWAL reports on every segment read-only without stopping at the first
// fault -- fsck wants the full picture. base is the segment the newest
// valid checkpoint covers (0 when none): holes at or below it are no damage.
func CheckWAL(dir string, base uint64) ([]SegmentReport, error) {
	var reports []SegmentReport
	err := walk(dir, 0, base, nil, func(rep SegmentReport) error {
		reports = append(reports, rep)
		return nil
	})
	return reports, err
}
