package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/journal"
	"besteffs/internal/metrics"
	"besteffs/internal/object"
	"besteffs/internal/store"
	"besteffs/internal/telemetry"
)

// Online scrub: a background pass that re-verifies every resident's payload
// CRC in place and quarantines what no longer checks out. The blob stores
// already refuse to serve corrupt bytes at Get time; the scrubber finds the
// rot before any client does, so capacity held by unreadable objects is
// reclaimed promptly instead of on the next unlucky read.

// scrubMetrics are the scrub counters on the node's metrics registry.
type scrubMetrics struct {
	passes   *metrics.Counter
	checked  *metrics.Counter
	corrupt  *metrics.Counter
	missing  *metrics.Counter
	lastPass *metrics.Gauge
}

func newScrubMetrics(reg *metrics.Registry) scrubMetrics {
	return scrubMetrics{
		passes: reg.Counter("besteffs_scrub_passes_total",
			"completed scrub passes"),
		checked: reg.Counter("besteffs_scrub_checked_total",
			"payloads CRC-verified by the scrubber"),
		corrupt: reg.Counter("besteffs_scrub_corrupt_total",
			"payloads quarantined for CRC mismatch"),
		missing: reg.Counter("besteffs_scrub_missing_total",
			"residents quarantined for missing payloads"),
		lastPass: reg.Gauge("besteffs_scrub_last_pass_seconds",
			"duration of the most recent scrub pass"),
	}
}

// ScrubStats reports cumulative scrub activity for status JSON.
type ScrubStats struct {
	Passes          int64   `json:"passes"`
	Checked         int64   `json:"checked"`
	Corrupt         int64   `json:"corrupt"`
	Missing         int64   `json:"missing"`
	LastPassSeconds float64 `json:"last_pass_seconds"`
}

// ScrubStats returns cumulative scrub counters.
func (s *Server) ScrubStats() ScrubStats {
	return ScrubStats{
		Passes:          s.scrub.passes.Value(),
		Checked:         s.scrub.checked.Value(),
		Corrupt:         s.scrub.corrupt.Value(),
		Missing:         s.scrub.missing.Value(),
		LastPassSeconds: s.scrub.lastPass.Value(),
	}
}

// ScrubPass summarizes one scrub pass.
type ScrubPass struct {
	Checked int `json:"checked"`
	Corrupt int `json:"corrupt"`
	Missing int `json:"missing"`
}

// ScrubNow verifies every resident's payload and quarantines corrupt or
// missing ones. It is safe to call while serving traffic: the resident
// list is a snapshot, and each quarantine synchronizes like any other
// mutation.
func (s *Server) ScrubNow(ctx context.Context) (ScrubPass, error) {
	var pass ScrubPass
	start := time.Now()
	for _, o := range s.engine.Residents() {
		if ctx.Err() != nil {
			return pass, ctx.Err()
		}
		err := s.blobs.Verify(o.ID)
		pass.Checked++
		s.scrub.checked.Inc()
		switch {
		case err == nil:
		case errors.Is(err, blob.ErrCorrupt):
			pass.Corrupt++
			s.quarantine(o.ID, s.clock(), err)
		case errors.Is(err, blob.ErrNotFound):
			// A delete or eviction may have raced the scan; only a still-
			// resident object with no payload is damage.
			if _, getErr := s.engine.Get(o.ID); getErr == nil {
				pass.Missing++
				s.quarantine(o.ID, s.clock(), err)
			}
		default:
			return pass, fmt.Errorf("server: scrub %s: %w", o.ID, err)
		}
	}
	s.scrub.passes.Inc()
	s.scrub.lastPass.Set(time.Since(start).Seconds())
	return pass, nil
}

// scrubLoop runs ScrubNow every scrubEvery until ctx is cancelled.
func (s *Server) scrubLoop(ctx context.Context) {
	ticker := time.NewTicker(s.scrubEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			pass, err := s.ScrubNow(ctx)
			if err != nil {
				if ctx.Err() == nil {
					s.log.Error("scrub pass", "err", err)
				}
				continue
			}
			if pass.Corrupt > 0 || pass.Missing > 0 {
				s.log.Warn("scrub pass quarantined objects",
					"checked", pass.Checked, "corrupt", pass.Corrupt, "missing", pass.Missing)
			} else {
				s.log.Debug("scrub pass clean", "checked", pass.Checked)
			}
		}
	}
}

// quarantine removes an object whose payload is damaged: one mutation that
// evicts the metadata and commits the removal, so the payload index and
// replay agree. The damage counters distinguish corrupt payloads from missing
// ones.
func (s *Server) quarantine(id object.ID, now time.Duration, cause error) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.unit.Remove(id); err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return // lost a race with a delete or eviction; nothing to do
		}
		s.log.Error("quarantine remove", "id", id, "err", err)
		return
	}
	sh.removed(journal.KindEvict, id, now)
	s.commit(sh)
	if errors.Is(cause, blob.ErrNotFound) {
		s.scrub.missing.Inc()
	} else {
		s.scrub.corrupt.Inc()
	}
	s.events.Record(telemetry.Event{
		Kind: telemetry.EventQuarantine, ID: string(id), Detail: cause.Error(),
	})
	s.log.Warn("object quarantined", "id", id, "cause", cause)
}
