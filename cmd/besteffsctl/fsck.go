package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math"
	"os"
	"path/filepath"

	"besteffs/internal/blob"
	"besteffs/internal/journal"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/server"
	"besteffs/internal/store"
)

// cmdFsck is the offline integrity checker: it inspects a node's data
// directory directly -- no daemon, no dialing -- and verifies every layer
// of the durability stack:
//
//   - WAL segments: every record frame's CRC, classifying a torn tail on
//     the newest segment (normal post-crash state, repaired at boot) apart
//     from real corruption and from a hole in the segment numbering above
//     the newest valid checkpoint (hard damage); damage in a segment that
//     checkpoint covers is reported as covered, since no boot reads it;
//   - checkpoints: magic, header CRC and object records of every
//     checkpoint file;
//   - blobs: the payload log's record headers are scanned as a boot scans
//     them, and the payload of every record a resident references is read
//     back against its recorded CRC -- a corrupt one is hard damage;
//   - cross-checks: a resident with no readable payload record is dropped
//     at the next boot, so it is a warning. Records no resident references
//     are how the log looks after any eviction (it writes no tombstones):
//     they are summed up in one line, with the bytes the next put reclaims.
//
// A node keeps one WAL and one payload log whatever its shard count, so one
// pass over each checks a directory written at any count. A directory
// holding an older layout, which the daemon refuses, fails the check
// outright.
//
// It returns an error -- besteffsctl exits nonzero -- iff hard damage was
// found. Run it only while the daemon is stopped; a live WAL legitimately
// has an in-flight tail.
func cmdFsck(dataDir string, out io.Writer) error {
	problems := 0
	warn := func(format string, args ...any) {
		fmt.Fprintf(out, "  warning: "+format+"\n", args...)
	}
	damage := func(format string, args ...any) {
		problems++
		fmt.Fprintf(out, "  DAMAGE: "+format+"\n", args...)
	}

	if err := server.RefuseOldLayout(dataDir); err != nil {
		return err
	}

	// Metadata pass: checkpoints, segments, and the resident set the WAL
	// implies. The WAL must be trustworthy for the blob cross-check to mean
	// anything.
	resident := make(map[object.ID]bool)
	stateTrusted, err := fsckWALDir(filepath.Join(dataDir, server.WALDirName), out, damage, resident)
	if err != nil {
		return err
	}

	// Blobs: open the payload log as the daemon would -- which reads the
	// record headers and changes nothing -- and verify the payloads the
	// residents reference. When the WAL cannot be trusted the resident set
	// is unknown, and every indexed record is verified instead.
	// A missing directory is an empty log, and is left missing: opening a
	// file store would create it.
	blobDir := filepath.Join(dataDir, server.BlobDirName)
	fmt.Fprintf(out, "blobs in %s:\n", blobDir)
	var files *blob.FileStore
	var indexed []object.ID
	if _, err := os.Stat(blobDir); errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintln(out, "  none: the directory is missing")
	} else {
		if files, err = blob.NewFileStore(blobDir); err != nil {
			return err
		}
		if indexed, err = files.IDs(); err != nil {
			return err
		}
		fmt.Fprintf(out, "  %d segment(s), %d bytes, %d record(s) indexed\n",
			files.Stats().Segments, files.Stats().DiskBytes, len(indexed))
	}
	verify := indexed
	if stateTrusted {
		verify = make([]object.ID, 0, len(resident))
		for id := range resident {
			verify = append(verify, id)
		}
	}
	corrupt := 0
	for _, id := range verify {
		err := blob.ErrNotFound
		if files != nil {
			err = files.Verify(id)
		}
		switch {
		case err == nil:
		case errors.Is(err, blob.ErrCorrupt):
			damage("blob %s: %v", id, err)
			corrupt++
		case errors.Is(err, blob.ErrNotFound):
			warn("resident %s has no readable payload record (dropped at next boot)", id)
		default:
			return err
		}
	}
	fmt.Fprintf(out, "  %d payload(s) verified, %d corrupt\n", len(verify), corrupt)
	if stateTrusted && files != nil {
		// What the next boot's reconciliation marks dead, marked dead here
		// the same way: in this process's index only.
		unreferenced := 0
		for _, id := range indexed {
			if !resident[id] {
				unreferenced++
				if err := files.Delete(id); err != nil {
					return err
				}
			}
		}
		after := files.Stats()
		fmt.Fprintf(out, "  %d record(s) no resident references; %d of %d bytes on disk are reclaimable\n",
			unreferenced, after.DiskBytes-after.LiveBytes, after.DiskBytes)
	}

	if problems > 0 {
		return fmt.Errorf("fsck: %d problem(s) found in %s", problems, dataDir)
	}
	fmt.Fprintln(out, "fsck: clean")
	return nil
}

// fsckWALDir runs the checkpoint and segment passes over the WAL, folding
// the residents it implies into resident. It reports whether the WAL was
// clean enough that the next boot would accept it (the resident set is only
// meaningful then).
func fsckWALDir(walDir string, out io.Writer, damage func(string, ...any), resident map[object.ID]bool) (bool, error) {
	// Checkpoints: validate every file.
	fmt.Fprintf(out, "checkpoints in %s:\n", walDir)
	seqs, err := journal.Checkpoints.List(walDir)
	if err != nil {
		return false, err
	}
	base := uint64(0) // what the newest valid checkpoint covers, as recovery picks it
	for _, seq := range seqs {
		path := journal.CheckpointPath(walDir, seq)
		cp, err := journal.ReadCheckpoint(path)
		if err != nil {
			damage("checkpoint %s: %v", filepath.Base(path), err)
			continue
		}
		base = cp.CoversSeq
		fmt.Fprintf(out, "  %s: covers segment %d, %d objects, ok\n",
			filepath.Base(path), cp.CoversSeq, len(cp.Objects))
	}
	if len(seqs) == 0 {
		fmt.Fprintln(out, "  none")
	}

	// Segments: full scan, reporting every damaged file.
	fmt.Fprintf(out, "wal segments in %s:\n", walDir)
	reports, err := journal.CheckWAL(walDir, base)
	if err != nil {
		return false, err
	}
	stateTrusted := true
	for _, rep := range reports {
		if rep.Missing > 0 {
			damage("%v", journal.MissingSegments(rep.Seq-rep.Missing, rep.Seq-1))
			stateTrusted = false
		}
		switch {
		case rep.Damage != journal.DamageNone && rep.Seq <= base:
			fmt.Fprintf(out, "  %s: damaged at offset %d, covered by the checkpoint (never read at boot)\n",
				filepath.Base(rep.Path), rep.ValidBytes)
		case rep.Damage == journal.DamageNone:
			fmt.Fprintf(out, "  %s: %d records, %d bytes, ok\n",
				filepath.Base(rep.Path), rep.Records, rep.TotalBytes)
		case rep.Damage == journal.DamageTornTail:
			fmt.Fprintf(out, "  %s: %d records, torn tail (%d of %d bytes valid; truncated at next boot)\n",
				filepath.Base(rep.Path), rep.Records, rep.ValidBytes, rep.TotalBytes)
		default:
			damage("segment %s corrupt at offset %d (%d records before the fault)",
				filepath.Base(rep.Path), rep.ValidBytes, rep.Records)
			stateTrusted = false
		}
	}
	if len(reports) == 0 {
		fmt.Fprintln(out, "  none")
	}
	// Recover the WAL exactly as the next boot would: that finds what only
	// replay sees (a hole right above the checkpoint, a record no shard can
	// hold) and, when the boot would accept the WAL, gives the resident set
	// for the cross-check. One shard with room for anything: which shard
	// holds a resident does not matter here.
	if stateTrusted {
		eng, err := store.NewEngine(store.EngineConfig{Capacity: math.MaxInt64, Policy: policy.TemporalImportance{}}, nil)
		if err != nil {
			return false, err
		}
		if err := server.RecoverWAL(walDir, eng, new(server.RestoreStats),
			slog.New(slog.NewTextHandler(io.Discard, nil))); err != nil {
			damage("replay: %v", err)
			stateTrusted = false
		}
		for _, o := range eng.Residents() {
			resident[o.ID] = true
		}
	}
	return stateTrusted, nil
}
