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
	// Seq is the newest WAL segment the checkpoint covers; recovery replays
	// only segments younger than it.
	Seq uint64
	// Objects is the number of residents captured across all shards.
	Objects int
	// SegmentsRemoved is how many covered WAL segments were deleted.
	SegmentsRemoved int
	// Took is the wall time the checkpoint spent, including the part
	// outside the shards' write locks.
	Took time.Duration
}

// Checkpoint captures the node's live state -- every resident's size,
// arrival and importance function -- into one durable checkpoint file next
// to the WAL segments, then deletes the segments it covers. Afterwards,
// recovery cost is proportional to the live data set, not the write
// history.
//
// The cut is coordinated across shards: Checkpoint acquires every shard's
// write lock in ascending shard order, barriers the WAL and snapshots every
// unit while all locks are held, then releases them. No mutation can
// interleave, so the checkpoint describes the node at one instant. Only the
// barrier and the snapshot run under the locks; serializing the snapshot
// and fsyncing it happen concurrently with new requests, whose records land
// in segments younger than the barrier and replay on top of the checkpoint.
func (s *Server) Checkpoint() (CheckpointStats, error) {
	var stats CheckpointStats
	if s.wal == nil {
		return stats, errors.New("server: checkpoint requires WithWAL")
	}
	start := time.Now()

	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	sealed, err := s.wal.Barrier()
	var objs []*object.Object
	if err == nil {
		objs = s.engine.Residents()
	}
	now := s.clock()
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
	if err != nil {
		return stats, fmt.Errorf("server: checkpoint barrier: %w", err)
	}

	cp := journal.Checkpoint{CoversSeq: sealed, Resume: now}
	cp.Objects = make([]journal.Record, len(objs))
	for k, o := range objs {
		cp.Objects[k] = journal.ObjectRecord(o)
	}
	if err := journal.WriteCheckpoint(s.wal.Dir(), cp); err != nil {
		return stats, fmt.Errorf("server: write checkpoint: %w", err)
	}

	// The checkpoint is durable; the history it covers is now redundant.
	removed, err := s.wal.RemoveThrough(sealed)
	if err != nil {
		return stats, fmt.Errorf("server: truncate wal: %w", err)
	}
	if _, err := journal.Checkpoints.Prune(s.wal.Dir(), sealed); err != nil {
		return stats, fmt.Errorf("server: prune checkpoints: %w", err)
	}
	stats.Seq, stats.Objects, stats.SegmentsRemoved = sealed, len(objs), removed
	stats.Took = time.Since(start)
	return stats, nil
}
