package server

import (
	"errors"
	"fmt"
	"time"

	"besteffs/internal/journal"
	"besteffs/internal/object"
)

// CheckpointStats summarizes one coordinated checkpoint.
type CheckpointStats struct {
	// Seq is the newest WAL segment the checkpoint covers (the maximum
	// across shards); each shard's recovery replays only segments younger
	// than its own checkpoint.
	Seq uint64
	// Objects is the number of residents captured across all shards.
	Objects int
	// SegmentsRemoved is how many covered WAL segments were deleted
	// across all shards.
	SegmentsRemoved int
	// Took is the wall time the checkpoint spent, including the part
	// outside the shards' write locks.
	Took time.Duration
}

// Checkpoint captures the node's live state -- every resident's size,
// arrival and importance function -- into one durable checkpoint file per
// shard, next to that shard's WAL segments, then deletes the segments each
// checkpoint covers. Afterwards, recovery cost is proportional to the live
// data set, not the write history.
//
// The cut is coordinated across shards: Checkpoint acquires every shard's
// write lock in ascending shard order, barriers every WAL and
// snapshots every unit while all locks are held, then releases them. No
// mutation can interleave inside the barrier sequence, so the per-shard
// checkpoints describe the node at one instant and recovery rebuilds every
// shard to the same consistent cut. Only the barriers and snapshots run
// under the locks; serializing the snapshots and fsyncing them happen
// concurrently with new requests, whose records land in segments younger
// than their shard's barrier and replay on top of its checkpoint.
func (s *Server) Checkpoint() (CheckpointStats, error) {
	var stats CheckpointStats
	for _, sh := range s.shards {
		if sh.wal == nil {
			return stats, errors.New("server: checkpoint requires WithWALs")
		}
	}
	start := time.Now()

	type cut struct {
		sealed uint64
		objs   []*object.Object
	}
	cuts := make([]cut, len(s.shards))
	locked := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		locked++
	}
	unlock := func() {
		for i := locked - 1; i >= 0; i-- {
			s.shards[i].mu.Unlock()
		}
		locked = 0
	}
	for i, sh := range s.shards {
		sealed, err := sh.wal.Barrier()
		if err != nil {
			unlock()
			return stats, fmt.Errorf("server: checkpoint barrier shard %d: %w", i, err)
		}
		cuts[i] = cut{sealed: sealed, objs: sh.unit.Snapshot()}
	}
	now := s.clock()
	unlock()

	for i, sh := range s.shards {
		cp := journal.Checkpoint{CoversSeq: cuts[i].sealed, Resume: now}
		cp.Objects = make([]journal.Record, len(cuts[i].objs))
		for k, o := range cuts[i].objs {
			cp.Objects[k] = journal.ObjectRecord(o)
		}
		if err := journal.WriteCheckpoint(sh.wal.Dir(), cp); err != nil {
			return stats, fmt.Errorf("server: write checkpoint shard %d: %w", i, err)
		}

		// The checkpoint is durable; the history it covers is now
		// redundant.
		removed, err := sh.wal.RemoveThrough(cuts[i].sealed)
		if err != nil {
			return stats, fmt.Errorf("server: truncate wal shard %d: %w", i, err)
		}
		if _, err := journal.RemoveCheckpointsBefore(sh.wal.Dir(), cuts[i].sealed); err != nil {
			return stats, fmt.Errorf("server: prune checkpoints shard %d: %w", i, err)
		}
		if cuts[i].sealed > stats.Seq {
			stats.Seq = cuts[i].sealed
		}
		stats.Objects += len(cuts[i].objs)
		stats.SegmentsRemoved += removed
	}
	stats.Took = time.Since(start)
	return stats, nil
}
