package server

import (
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/journal"
	"besteffs/internal/object"
	"besteffs/internal/store"
)

// restoreProgressEvery is how many replayed records pass between progress
// log lines during recovery.
const restoreProgressEvery = 10_000

// RestoreStats summarizes a recovery.
type RestoreStats struct {
	// Records is the number of journal records applied (post-checkpoint
	// records only when a checkpoint was loaded).
	Records int `json:"records"`
	// Residents is the number of objects resident after recovery.
	Residents int `json:"residents"`
	// Resume is the node time recovery resumed from: the latest of the
	// checkpoint's capture time and the last applied record. The server
	// clock continues from here.
	Resume time.Duration `json:"resume_nanos"`
	// DroppedNoPayload counts residents discarded because the payload log
	// holds no readable record of them (the record was torn or damaged;
	// an acknowledged put is synced before its journal record, so a crash
	// alone does not produce one).
	DroppedNoPayload int `json:"dropped_no_payload"`
	// DroppedOrphanBlobs counts payload records marked dead, in memory,
	// because no resident references them. The payload log writes no
	// tombstones, so this is every record of an object evicted or deleted
	// since its segment was written whose segment is still on disk -- a
	// normal restart counts some -- plus payloads whose journal record a
	// crash cut off. Their bytes are reclaimed by the next put.
	DroppedOrphanBlobs int `json:"dropped_orphan_blobs"`
	// CheckpointSeq is the WAL segment sequence the loaded checkpoint
	// covers (0 when recovery started from an empty state).
	CheckpointSeq uint64 `json:"checkpoint_seq,omitempty"`
	// CheckpointObjects is the number of residents loaded from the
	// checkpoint, before WAL replay.
	CheckpointObjects int `json:"checkpoint_objects,omitempty"`
	// CheckpointsSkipped counts newer checkpoint files that failed
	// verification and were passed over for an older intact one.
	CheckpointsSkipped int `json:"checkpoints_skipped,omitempty"`
	// SegmentsReplayed is the number of WAL segments whose records were
	// applied on top of the checkpoint.
	SegmentsReplayed int `json:"segments_replayed,omitempty"`
	// TornTailBytes is the size of the truncated partial record at the
	// tail of the newest segment (0 for a clean shutdown).
	TornTailBytes int64 `json:"torn_tail_bytes,omitempty"`
}

// applyRecord replays one journal record into the unit of the record's
// home shard. Deletes and evictions of absent objects are tolerated: the
// journal may record an eviction whose put landed in a segment already
// folded into a checkpoint.
func applyRecord(u *store.Unit, r journal.Record) error {
	switch r.Kind {
	case journal.KindPut:
		o, err := r.Object()
		if err != nil {
			return err
		}
		return u.Restore(o)
	case journal.KindDelete, journal.KindEvict:
		if err := u.Remove(r.ID); err != nil && !errors.Is(err, store.ErrNotFound) {
			return err
		}
		return nil
	case journal.KindRejuvenate:
		if _, err := u.Rejuvenate(r.ID, r.Importance, r.At); err != nil &&
			!errors.Is(err, store.ErrNotFound) {
			return err
		}
		return nil
	default:
		return fmt.Errorf("server: unknown journal record %v", r.Kind)
	}
}

// shardError names the shard, and the count the node boots with, that
// recovery could not apply a record or checkpoint object to.
func shardError(eng *store.Engine, shard int, err error) error {
	if errors.Is(err, store.ErrOverCapacity) {
		return fmt.Errorf("server: restore: shard %d of %d cannot hold what the journal routes to it: %w",
			shard, eng.NumShards(), err)
	}
	return fmt.Errorf("server: restore: shard %d of %d: %w", shard, eng.NumShards(), err)
}

// RecoverWAL rebuilds in eng the state the WAL under walDir holds -- the one
// recovery routine, shared by the daemon's boot and besteffsctl fsck: the
// newest valid checkpoint is the base image, then only the segments younger
// than it replay on top, one record at a time, so memory stays bounded by
// one segment whatever the history size. Those segments must run from the
// one right above the checkpoint's (or from 1) without a hole: a missing one
// fails the recovery with journal.ErrCorrupt. Every checkpoint object and every
// record goes to its ID's home shard in eng, whatever count wrote the WAL;
// a shard that cannot hold what is routed to it fails the recovery with an
// error naming the shard and the count. Counts accumulate into stats and
// stats.Resume advances to the newest instant seen.
func RecoverWAL(walDir string, eng *store.Engine, stats *RestoreStats, log *slog.Logger) error {
	cp, skipped, err := journal.LoadLatestCheckpoint(walDir)
	stats.CheckpointsSkipped += skipped
	coversSeq := uint64(0)
	switch {
	case err == nil:
		homes := make([][]*object.Object, eng.NumShards())
		for _, r := range cp.Objects {
			o, objErr := r.Object()
			if objErr != nil {
				return fmt.Errorf("server: restore checkpoint: %w", objErr)
			}
			i := eng.Home(o.ID)
			homes[i] = append(homes[i], o)
		}
		for i, objs := range homes {
			if err := eng.Shard(i).LoadSnapshot(objs); err != nil {
				return shardError(eng, i, err)
			}
		}
		coversSeq = cp.CoversSeq
		stats.CheckpointSeq = coversSeq
		stats.CheckpointObjects += len(cp.Objects)
		if cp.Resume > stats.Resume {
			stats.Resume = cp.Resume
		}
		log.Info("checkpoint loaded", "seq", cp.CoversSeq, "objects", len(cp.Objects), "skipped", skipped)
	case errors.Is(err, journal.ErrNoCheckpoint):
		// Full replay from segment 1.
	default:
		return fmt.Errorf("server: restore: %w", err)
	}

	applied := 0
	walStats, err := journal.ReplayWAL(walDir, coversSeq, func(r journal.Record) error {
		if r.At > stats.Resume {
			stats.Resume = r.At
		}
		applied++
		if applied%restoreProgressEvery == 0 {
			log.Info("replay progress", "records", applied)
		}
		i := eng.Home(r.ID)
		if err := applyRecord(eng.Shard(i), r); err != nil {
			return shardError(eng, i, err)
		}
		return nil
	})
	if err == nil && walStats.FirstSeq > coversSeq+1 {
		err = journal.MissingSegments(coversSeq+1, walStats.FirstSeq-1)
	}
	if err != nil {
		return fmt.Errorf("server: restore: %w", err)
	}
	stats.Records += walStats.Records
	stats.SegmentsReplayed += walStats.Segments
	stats.TornTailBytes += walStats.TornTailBytes
	return nil
}

// RestoreDir recovers the node from its data directory: the WAL through
// RecoverWAL, each resident to its home shard at this node's shard count,
// then one payload reconciliation at the end. Recovery cost is proportional
// to the live data set plus the records written since the last checkpoint,
// not the node's full write history. A directory holding an older layout is
// refused with ErrLayoutMismatch before anything is read, and a shard count
// whose shards cannot hold what the history routes to them fails before
// reconciliation: either way nothing on disk changes, and the count that
// wrote the directory still boots. Call it after New and before Serve.
func (s *Server) RestoreDir(dataDir string) (RestoreStats, error) {
	var stats RestoreStats
	if err := RefuseOldLayout(dataDir); err != nil {
		return stats, err
	}
	if err := RecoverWAL(filepath.Join(dataDir, WALDirName), s.engine, &stats, s.log); err != nil {
		return stats, err
	}
	if s.wal != nil { // OpenWAL truncated the torn tail replay would have met
		stats.TornTailBytes += s.wal.TornTailBytes()
	}
	if stats.TornTailBytes > 0 {
		s.log.Warn("torn journal tail truncated", "bytes", stats.TornTailBytes)
	}
	if files, ok := s.blobs.(*blob.FileStore); ok {
		if err := s.reconcileBlobs(files, &stats); err != nil {
			return stats, err
		}
	}
	// Resume the node clock so recovered objects keep aging correctly.
	stats.Residents = s.engine.Len()
	resume, start := stats.Resume, time.Now()
	s.clock = func() time.Duration { return resume + time.Since(start) }
	snapshot := stats
	s.lastRestore = &snapshot
	return stats, nil
}

// reconcileBlobs makes the resident set and the payload log agree. The
// journal is the authority on what is resident: a resident without a
// readable payload record is dropped, and a record without a resident --
// which is how the log, having no tombstones, remembers every eviction --
// is marked dead in the store's index. Nothing on disk changes.
func (s *Server) reconcileBlobs(files *blob.FileStore, stats *RestoreStats) error {
	onDisk, err := files.IDs()
	if err != nil {
		return fmt.Errorf("server: reconcile: %w", err)
	}
	present := make(map[object.ID]bool, len(onDisk))
	for _, id := range onDisk {
		present[id] = true
	}
	for _, o := range s.engine.Residents() {
		if present[o.ID] {
			delete(present, o.ID)
			continue
		}
		idx, _ := s.engine.Locate(o.ID)
		if err := s.shards[idx].unit.Remove(o.ID); err != nil {
			return fmt.Errorf("server: reconcile drop %s: %w", o.ID, err)
		}
		stats.DroppedNoPayload++
	}
	for id := range present {
		if err := files.Delete(id); err != nil {
			return fmt.Errorf("server: reconcile orphan %s: %w", id, err)
		}
		stats.DroppedOrphanBlobs++
	}
	return nil
}
