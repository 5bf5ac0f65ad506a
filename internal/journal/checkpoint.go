package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// A checkpoint is a snapshot of the live store state -- one KindPut record
// per resident object, carrying its metadata and importance function --
// plus the WAL position it covers. Recovery loads the newest valid
// checkpoint and replays only segments younger than CoversSeq, so restart
// cost is proportional to live data and post-checkpoint history, never to
// the full lifetime of the node.
//
// File format: an 8-byte magic, a CRC-protected fixed header (covered
// sequence, resume clock, object count), then the objects framed exactly
// like journal records. Checkpoint files are written to a temp name,
// fsynced and renamed, so a crash mid-write never shadows the previous
// checkpoint; any verification failure makes recovery fall back to the next
// older checkpoint (or a full replay), which replay accepts only while every
// segment above it is still on disk.

var ckptMagic = []byte{'B', 'E', 'F', 'F', 'C', 'K', 'P', '1'}

// ErrNoCheckpoint reports that a directory holds no valid checkpoint.
var ErrNoCheckpoint = errors.New("journal: no valid checkpoint")

// Checkpoint is a decoded snapshot.
type Checkpoint struct {
	// CoversSeq is the newest WAL segment whose effects the snapshot
	// includes; recovery replays only segments > CoversSeq.
	CoversSeq uint64
	// Resume is the node clock at the snapshot; the restored clock
	// continues from max(Resume, youngest replayed record).
	Resume time.Duration
	// Objects holds one KindPut record per live object, At carrying the
	// object's arrival time so restored residents keep aging correctly.
	Objects []Record
}

// CheckpointPath returns the file a checkpoint covering seq lives at.
func CheckpointPath(dir string, seq uint64) string {
	return filepath.Join(dir, Checkpoints.Name(seq))
}

// WriteCheckpoint atomically writes cp into dir (temp file, fsync, rename,
// directory fsync), replacing any checkpoint covering the same sequence.
func WriteCheckpoint(dir string, cp Checkpoint) error {
	// Header: magic, then coversSeq, resume, count and a CRC over those 20 bytes.
	hdr := append(make([]byte, 0, len(ckptMagic)+24), ckptMagic...)
	hdr = binary.BigEndian.AppendUint64(hdr, cp.CoversSeq)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(cp.Resume))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(cp.Objects)))
	hdr = binary.BigEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr[len(ckptMagic):]))

	tmp := filepath.Join(dir, fmt.Sprintf(".ckpt-tmp-%d", os.Getpid()))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: checkpoint temp: %w", err)
	}
	abort := func(err error) error {
		//lint:ignore uncheckederr already aborting with the write error; the temp file is removed
		f.Close()
		os.Remove(tmp)
		return err
	}
	bw := bufio.NewWriter(f)
	if _, err := bw.Write(hdr); err != nil {
		return abort(fmt.Errorf("journal: checkpoint write: %w", err))
	}
	var frame []byte
	for _, r := range cp.Objects {
		if r.Kind != KindPut {
			return abort(fmt.Errorf("journal: checkpoint object %s has kind %v, want put", r.ID, r.Kind))
		}
		if frame, err = appendFrame(frame[:0], r); err != nil {
			return abort(err)
		}
		if _, err := bw.Write(frame); err != nil {
			return abort(fmt.Errorf("journal: checkpoint write: %w", err))
		}
	}
	if err := bw.Flush(); err != nil {
		return abort(fmt.Errorf("journal: checkpoint flush: %w", err))
	}
	if err := f.Sync(); err != nil {
		return abort(fmt.Errorf("journal: checkpoint sync: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, CheckpointPath(dir, cp.CoversSeq)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: checkpoint rename: %w", err)
	}
	if err := SyncDir(dir); err != nil {
		return fmt.Errorf("journal: checkpoint sync dir: %w", err)
	}
	return nil
}

// ReadCheckpoint reads and fully verifies one checkpoint file.
func ReadCheckpoint(path string) (Checkpoint, error) {
	var cp Checkpoint
	data, err := os.ReadFile(path)
	if err != nil {
		return cp, fmt.Errorf("journal: read checkpoint: %w", err)
	}
	if len(data) < len(ckptMagic)+24 || !bytes.Equal(data[:len(ckptMagic)], ckptMagic) {
		return cp, fmt.Errorf("%w: %s: bad checkpoint magic", ErrCorrupt, path)
	}
	hdr := data[len(ckptMagic) : len(ckptMagic)+24]
	if crc32.ChecksumIEEE(hdr[:20]) != binary.BigEndian.Uint32(hdr[20:]) {
		return cp, fmt.Errorf("%w: %s: checkpoint header checksum", ErrCorrupt, path)
	}
	cp.CoversSeq = binary.BigEndian.Uint64(hdr)
	cp.Resume = time.Duration(binary.BigEndian.Uint64(hdr[8:]))
	count, body := binary.BigEndian.Uint32(hdr[16:]), data[len(ckptMagic)+24:]
	// Every object is a frame of at least 8 bytes. The count is compared
	// unsigned: a 32-bit int would read one past 2^31 as negative.
	if uint64(count) > uint64(len(body)/8) {
		return cp, fmt.Errorf("%w: %s: checkpoint claims %d objects in %d bytes", ErrCorrupt, path, count, len(body))
	}
	cp.Objects = make([]Record, 0, count)
	valid, n, damaged := scanFrames(body, func(r Record) {
		cp.Objects = append(cp.Objects, r)
	})
	if damaged || n != int(count) {
		return Checkpoint{}, fmt.Errorf("%w: %s: checkpoint holds %d valid objects (%d bytes), header says %d",
			ErrCorrupt, path, n, valid, count)
	}
	return cp, nil
}

// LoadLatestCheckpoint finds the newest checkpoint in dir that verifies,
// skipping damaged ones (skipped reports how many). It returns
// ErrNoCheckpoint when the directory has none worth loading -- recovery
// then falls back to a full replay.
func LoadLatestCheckpoint(dir string) (Checkpoint, int, error) {
	seqs, err := Checkpoints.List(dir)
	if err != nil {
		return Checkpoint{}, 0, err
	}
	skipped := 0
	for i := len(seqs) - 1; i >= 0; i-- {
		cp, err := ReadCheckpoint(CheckpointPath(dir, seqs[i]))
		if err != nil {
			skipped++
			continue
		}
		return cp, skipped, nil
	}
	return Checkpoint{}, skipped, ErrNoCheckpoint
}
