package server

// Cluster integration: membership gossip dispatch, the replica-admission
// path behind REPLICATE, the index exchange behind anti-entropy, and the
// ingest-time push hook. The server knows membership and repair only
// through small interfaces wired up by the daemon (SetMembership /
// SetRepair before Serve), so internal/server depends on neither
// internal/member nor internal/repair; a node without them answers the
// cluster opcodes with CodeBadRequest and behaves exactly like the
// single-node server it always was.

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/journal"
	"besteffs/internal/object"
	"besteffs/internal/store"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// replicateTimeout bounds the synchronous network work a single request may
// trigger: ingest-time replica pushes and corrupt-get recovery.
const replicateTimeout = 5 * time.Second

// Membership is the server's view of the gossip agent (internal/member).
type Membership interface {
	// HandleGossip merges one incoming heartbeat and returns the local
	// view plus the push-pull return share -- or a wire.ErrorMsg with
	// CodeConfigMismatch when the sender's cluster config conflicts with
	// this node's at an equal version.
	HandleGossip(g *wire.Gossip) wire.Message
	// Members lists every known node, self included.
	Members() []wire.MemberInfo
}

// Replicator is the server's view of the repair manager (internal/repair).
type Replicator interface {
	// PushSync pushes a freshly admitted object to R-1 live peers before
	// the put is acknowledged; it returns the copies that now exist.
	PushSync(ctx context.Context, rep *wire.Replicate) int
	// Recover fetches the best available replica of id from live peers.
	Recover(ctx context.Context, id object.ID) (*wire.Replicate, error)
	// Status reports replication configuration and counters.
	Status() *wire.RepairStatusResult
	// Threshold is the initial importance at or above which objects
	// replicate; the server pre-filters pushes with it.
	Threshold() float64
}

// SetMembership attaches the gossip agent. Call before Serve.
func (s *Server) SetMembership(m Membership) { s.membership = m }

// SetRepair attaches the repair manager. Call before Serve.
func (s *Server) SetRepair(r Replicator) {
	s.repl = r
	if s.repairedGets == nil {
		s.repairedGets = s.met.reg.Counter("besteffs_get_repaired_total",
			"corrupt gets healed from a replica")
	}
}

// errNotClustered answers a cluster opcode on a node running without the
// corresponding component.
func errNotClustered(what string) wire.Message {
	return &wire.ErrorMsg{Code: wire.CodeBadRequest,
		Text: fmt.Sprintf("node is not running %s", what)}
}

// IndexEntries implements repair.Local: it summarizes every resident whose
// initial importance is at or above threshold. The CRC comes from the blob
// store's stored checksum (blob.Summer), so indexing does not read payloads.
func (s *Server) IndexEntries(threshold float64) []wire.IndexEntry {
	summer, _ := s.blobs.(blob.Summer)
	now := s.clock()
	var entries []wire.IndexEntry
	for _, o := range s.engine.Residents() {
		initial := o.Importance.At(0)
		if initial < threshold {
			continue
		}
		var crc uint32
		if summer != nil {
			c, err := summer.Sum(o.ID)
			if err != nil {
				continue // evicted between snapshot and sum; not resident anymore
			}
			crc = c
		}
		entries = append(entries, wire.IndexEntry{
			ID:       o.ID,
			Version:  uint32(o.Version),
			CRC:      crc,
			Size:     o.Size,
			Initial:  initial,
			AgeNanos: int64(o.Age(now)),
		})
	}
	return entries
}

// compareIndex is the one need/missing comparison of anti-entropy: the
// caller's entries against ours, both filtered by the caller's threshold.
// missing lists our copies the caller should pull (it lacks them, or ours
// supersede), need lists the caller's copies we would pull. Equal copies
// appear in neither.
func (s *Server) compareIndex(threshold float64, remote []wire.IndexEntry) (missing []wire.IndexEntry, need []object.ID) {
	local := s.IndexEntries(threshold)
	byID := make(map[object.ID]wire.IndexEntry, len(local))
	for _, e := range local {
		byID[e.ID] = e
	}
	seen := make(map[object.ID]bool, len(remote))
	for _, e := range remote {
		seen[e.ID] = true
		l, ok := byID[e.ID]
		switch {
		case !ok || wire.Supersedes(e.Version, l.Version, e.CRC, l.CRC):
			need = append(need, e.ID)
		case wire.Supersedes(l.Version, e.Version, l.CRC, e.CRC):
			missing = append(missing, l)
		}
	}
	for _, l := range local {
		if !seen[l.ID] {
			missing = append(missing, l)
		}
	}
	return missing, need
}

// maxPeerMirrors caps the index mirrors kept for INDEX_DELTA callers. An
// evicted peer is not broken, just demoted: its next delta misses the
// sequence check and resyncs with a full snapshot.
const maxPeerMirrors = 64

// peerMirror is this node's copy of one anti-entropy caller's index: the
// entries it sent, the sequence of its last applied exchange, and the
// threshold the entries were filtered by. A delta whose BaseSeq or threshold
// does not match is refused with Resync -- the caller's view of what we
// mirror has diverged (restart, eviction, lost ack) and only a full snapshot
// re-establishes it.
type peerMirror struct {
	seq       uint64
	threshold float64
	entries   map[object.ID]wire.IndexEntry
}

// handleIndexDelta answers the anti-entropy exchange: apply the caller's
// delta to our mirror of its index, then compare the mirrored entries with
// our own. Full snapshots replace the mirror unconditionally; partial deltas
// must extend the exact state we acknowledged (m.BaseSeq, same threshold) or
// the caller is told to Resync.
func (s *Server) handleIndexDelta(m *wire.IndexDelta) wire.Message {
	s.peerIdxMu.Lock()
	if s.peerIdx == nil {
		s.peerIdx = make(map[string]*peerMirror)
	}
	pm := s.peerIdx[m.From]
	switch {
	case m.Full:
		entries := make(map[object.ID]wire.IndexEntry, len(m.Upserts))
		for _, e := range m.Upserts {
			entries[e.ID] = e
		}
		pm = &peerMirror{seq: m.Seq, threshold: m.Threshold, entries: entries}
		if s.peerIdx[m.From] == nil && len(s.peerIdx) >= maxPeerMirrors {
			// Evict an arbitrary mirror; that peer just resyncs.
			for k := range s.peerIdx {
				delete(s.peerIdx, k)
				break
			}
		}
		s.peerIdx[m.From] = pm
	case pm == nil || pm.seq != m.BaseSeq || pm.threshold != m.Threshold:
		s.peerIdxMu.Unlock()
		return &wire.IndexDeltaResult{Resync: true}
	default:
		for _, e := range m.Upserts {
			pm.entries[e.ID] = e
		}
		for _, id := range m.Removed {
			delete(pm.entries, id)
		}
		pm.seq = m.Seq
	}
	// Snapshot the mirror before unlocking: IndexEntries reads payload
	// checksums and must not run under peerIdxMu.
	mirrored := make([]wire.IndexEntry, 0, len(pm.entries))
	for _, e := range pm.entries {
		mirrored = append(mirrored, e)
	}
	s.peerIdxMu.Unlock()

	res := &wire.IndexDeltaResult{AckSeq: m.Seq}
	res.Missing, res.Need = s.compareIndex(m.Threshold, mirrored)
	return res
}

// ReplicaSource implements repair.Local: it packages a resident for a peer,
// carrying the object's current age so importance decays identically on
// every replica.
func (s *Server) ReplicaSource(id object.ID) (*wire.Replicate, error) {
	o, err := s.engine.Get(id)
	if err != nil {
		return nil, err
	}
	payload, err := s.blobs.Get(id)
	if err != nil {
		return nil, err
	}
	return &wire.Replicate{
		ID:         o.ID,
		Owner:      o.Owner,
		Class:      o.Class,
		Version:    uint32(o.Version),
		Importance: o.Importance,
		AgeNanos:   int64(o.Age(s.clock())),
		Payload:    payload,
	}, nil
}

// replicaOutcome says what storeReplica did with an incoming copy.
type replicaOutcome int

const (
	// replicaStored: the copy was admitted (possibly replacing a
	// superseded resident).
	replicaStored replicaOutcome = iota
	// replicaSuperseded: the resident copy is already as good or better;
	// nothing changed (the idempotent outcome anti-entropy races expect).
	replicaSuperseded
	// replicaRefused: the admission policy declined the copy -- on this
	// node it would preempt more importance than it carries.
	replicaRefused
)

// errBadReplica marks validation failures (vs. internal storage errors).
var errBadReplica = errors.New("server: bad replica")

// storeReplica admits one replica under the same discipline as a put: a
// checkpoint read-lock across each shard mutation and its journal append,
// metadata first, payload second with rollback. The replica's arrival time
// is reconstructed from its advertised age, so a copy pushed an hour after
// its original write decays exactly like the original. Divergent residents
// are resolved by wire.Supersedes: the losing copy is deleted and the
// winner admitted in its place. The delete and the admission may land on
// different shards (boundary placement); each runs under its own shard's
// lock, never both at once, so replicas cannot deadlock against the
// coordinated checkpoint.
func (s *Server) storeReplica(m *wire.Replicate, now time.Duration) (replicaOutcome, error) {
	if len(m.Payload) == 0 {
		return replicaRefused, fmt.Errorf("%w: empty payload", errBadReplica)
	}
	arrival := now - time.Duration(m.AgeNanos)
	if arrival < 0 {
		arrival = 0 // peer has been up longer than us; clamp to our epoch
	}
	version := m.Version
	if version == 0 {
		version = 1
	}
	inCRC := crc32.ChecksumIEEE(m.Payload)

	if idx, resident := s.engine.Locate(m.ID); resident {
		sh := s.shards[idx]
		sh.chkMu.RLock()
		if existing, err := sh.unit.Get(m.ID); err == nil {
			if !wire.Supersedes(version, uint32(existing.Version), inCRC, s.payloadCRC(m.ID)) {
				sh.chkMu.RUnlock()
				return replicaSuperseded, nil
			}
			if err := sh.unit.Delete(m.ID); err != nil && !errors.Is(err, store.ErrNotFound) {
				sh.chkMu.RUnlock()
				return replicaRefused, err
			}
			if err := s.blobs.Delete(m.ID); err != nil && !errors.Is(err, blob.ErrNotFound) {
				s.log.Error("drop superseded payload", "id", m.ID, "err", err)
			}
			s.journalTo(sh, journal.Record{Kind: journal.KindDelete, At: now, ID: m.ID})
		}
		sh.chkMu.RUnlock()
	}
	o, err := object.New(m.ID, int64(len(m.Payload)), arrival, m.Importance)
	if err != nil {
		return replicaRefused, fmt.Errorf("%w: %v", errBadReplica, err)
	}
	o.Owner = m.Owner
	o.Class = m.Class
	o.Version = int(version)
	sh := s.shards[s.engine.Place(o, now)]
	sh.chkMu.RLock()
	defer sh.chkMu.RUnlock()
	d, err := sh.unit.Put(o, now)
	if err != nil {
		return replicaRefused, err
	}
	if !d.Admit {
		s.events.Record(telemetry.Event{
			Kind: telemetry.EventReject, ID: string(m.ID),
			Importance: m.Importance.At(0), Boundary: d.HighestPreempted,
			Detail: "replica",
		})
		return replicaRefused, nil
	}
	if err := s.blobs.Put(o.ID, m.Payload); err != nil {
		if delErr := sh.unit.Delete(o.ID); delErr != nil {
			s.log.Error("roll back replica admission", "id", o.ID, "err", delErr)
		}
		return replicaRefused, err
	}
	// Journal the reconstructed arrival, not now: replay must restore the
	// same decay clock the replica was admitted under.
	s.journalTo(sh, journal.Record{
		Kind: journal.KindPut, At: arrival, ID: o.ID, Size: o.Size,
		Owner: o.Owner, Class: o.Class, Version: version,
		Importance: o.Importance,
	})
	s.events.Record(telemetry.Event{
		Kind: telemetry.EventAdmit, ID: string(o.ID),
		Importance: m.Importance.At(0), Boundary: d.HighestPreempted,
		Detail: "replica",
	})
	return replicaStored, nil
}

// StoreReplica implements repair.Local. It reports false when the resident
// copy already supersedes the incoming one or the policy refused it.
func (s *Server) StoreReplica(rep *wire.Replicate) (bool, error) {
	out, err := s.storeReplica(rep, s.clock())
	return out == replicaStored && err == nil, err
}

// payloadCRC returns the resident payload's checksum, preferring the blob
// store's stored sum over re-reading the bytes.
func (s *Server) payloadCRC(id object.ID) uint32 {
	if summer, ok := s.blobs.(blob.Summer); ok {
		if c, err := summer.Sum(id); err == nil {
			return c
		}
	}
	if b, err := s.blobs.Get(id); err == nil {
		return crc32.ChecksumIEEE(b)
	}
	return 0
}

// handleReplicate answers REPLICATE: replica admission shares the put
// result shape, with Admitted meaning "a copy at least this good now
// resides here" -- true for freshly stored copies and for the idempotent
// already-have-it case, false only when the policy refused the object.
func (s *Server) handleReplicate(m *wire.Replicate, now time.Duration) wire.Message {
	out, err := s.storeReplica(m, now)
	if err != nil {
		if errors.Is(err, errBadReplica) {
			return &wire.ErrorMsg{Code: wire.CodeBadRequest, Text: err.Error()}
		}
		if errors.Is(err, store.ErrDuplicateID) {
			return &wire.ErrorMsg{Code: wire.CodeDuplicate, Text: string(m.ID)}
		}
		return &wire.ErrorMsg{Code: wire.CodeInternal, Text: err.Error()}
	}
	return &wire.PutResult{Admitted: out != replicaRefused}
}

// replicateAdmitted pushes one freshly admitted, above-threshold put to
// R-1 peers, synchronously: the response has not been written yet, so an
// acknowledged high-importance object already has its replicas. Runs after
// the admission lock is released -- pushes are network I/O and must not
// stall checkpoints. The span context rides the push context so each
// outgoing REPLICATE hop joins the put's trace.
//
//besteffs:hotpath-ok replica fan-out happens after the local admission is acknowledged
func (s *Server) replicateAdmitted(res wire.Message, m *wire.Put, sc telemetry.SpanContext) {
	if s.repl == nil {
		return
	}
	pr, ok := res.(*wire.PutResult)
	if !ok || !pr.Admitted {
		return
	}
	if m.Importance.At(0) < s.repl.Threshold() {
		return
	}
	version := m.Version
	if version == 0 {
		version = 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), replicateTimeout)
	defer cancel()
	ctx = telemetry.NewContext(ctx, sc)
	s.repl.PushSync(ctx, &wire.Replicate{
		ID:         m.ID,
		Owner:      m.Owner,
		Class:      m.Class,
		Version:    version,
		Importance: m.Importance,
		AgeNanos:   0,
		Payload:    m.Payload,
	})
}

// executePutGroup admits a group of puts as one store transaction, then
// pushes the admitted above-threshold ones to their replicas. Returns one
// response per put, in group order. scs aligns with puts: each put's pushes
// ride its own frame's span context.
func (s *Server) executePutGroup(puts []*wire.Put, scs []telemetry.SpanContext, now time.Duration) []wire.Message {
	results := s.admitPutGroup(puts, scs, now)
	for i, m := range puts {
		var sc telemetry.SpanContext
		if i < len(scs) {
			sc = scs[i]
		}
		s.replicateAdmitted(results[i], m, sc)
	}
	return results
}

// recoverQuarantined tries to heal a just-quarantined corrupt object from
// a replica: fetch the best live copy, restore it locally, and serve it.
// Returns nil when the node is not clustered or no replica is reachable.
// The get's span context rides the recovery pulls, so healing hops join the
// get's trace.
func (s *Server) recoverQuarantined(id object.ID, sc telemetry.SpanContext) wire.Message {
	if s.repl == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), replicateTimeout)
	defer cancel()
	ctx = telemetry.NewContext(ctx, sc)
	rep, err := s.repl.Recover(ctx, id)
	if err != nil {
		s.log.Warn("quarantined object has no reachable replica", "id", id, "err", err)
		return nil
	}
	if _, err := s.storeReplica(rep, s.clock()); err != nil {
		s.log.Error("restore quarantined object from replica", "id", id, "err", err)
		// The fetched bytes are still good; serve them even though the
		// local restore failed.
	}
	s.repairedGets.Inc()
	s.events.Record(telemetry.Event{
		Kind: telemetry.EventHeal, ID: string(id), Trace: sc.Trace,
		Detail: "healed from replica",
	})
	s.log.Info("corrupt object healed from replica", "id", id)
	age := time.Duration(rep.AgeNanos)
	return &wire.ObjectMsg{
		ID:                rep.ID,
		Owner:             rep.Owner,
		Class:             rep.Class,
		Version:           rep.Version,
		Importance:        rep.Importance,
		AgeNanos:          rep.AgeNanos,
		CurrentImportance: rep.Importance.At(age),
		Payload:           rep.Payload,
	}
}
