// Package server is a lockdiscipline fixture for the shard's write lock
// (shard.mu guards the shard's WAL handle) and an
// eventrecorded fixture for the server rows of the
// decision-path table: recordAdmission, quarantine, recoverQuarantined and
// New must all leave a flight-recorder event behind.
package server

import (
	"sync"

	"fixture/internal/telemetry"
)

// shard mirrors one shard's write-lock-guarded fields.
type shard struct {
	mu  sync.Mutex
	wal int
}

// Server mirrors the node's telemetry sinks.
type Server struct {
	events  *telemetry.Recorder
	spans   *telemetry.SpanRing
	onEvict func(id string)
}

// New mirrors the real constructor's eviction hook: the Record call lives
// inside a func literal, which the analyzer must still see.
func New() *Server {
	s := &Server{events: &telemetry.Recorder{}, spans: &telemetry.SpanRing{}}
	s.onEvict = func(id string) {
		s.events.Record(telemetry.Event{Kind: telemetry.EventEvict, ID: id})
	}
	return s
}

// Seq reads the WAL handle under the write lock.
func (sh *shard) Seq() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.wal
}

// Checkpoint swaps the WAL handle under the write lock.
func (sh *shard) Checkpoint() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.wal++
}

// WALSeq reads a guarded field with no lock at all.
func (sh *shard) WALSeq() int {
	return sh.wal // want "reads guarded field wal without holding mu"
}

// recordAdmission stamps the admission verdict into the flight recorder.
func (s *Server) recordAdmission(id string, admitted bool) {
	kind := telemetry.EventAdmit
	if !admitted {
		kind = telemetry.EventEvict
	}
	s.events.Record(telemetry.Event{Kind: kind, ID: id})
}

// quarantine is deliberately event-free; the suppression below must
// silence the finding the analyzer would otherwise raise.
//
//lint:ignore eventrecorded the fixture quarantine defers its event to an imagined caller
func (s *Server) quarantine(id string) {
	s.journalish(id)
}

// recoverQuarantined records only a span -- the wrong ring. The analyzer
// must reject it: spans are sampling, the flight recorder is the contract.
func (s *Server) recoverQuarantined(id string) { // want "decision path Server.recoverQuarantined records no flight-recorder event"
	s.spans.Record("recover " + id)
}

func (s *Server) journalish(id string) { _ = id }
