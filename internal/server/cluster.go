package server

// Cluster integration: membership gossip dispatch, the replica-specific
// half of REPLICATE (the admission itself is batch.go's), the index exchange
// behind anti-entropy, and the ingest-time push hook. The server knows
// membership and repair only through small interfaces wired up by the daemon
// (SetMembership / SetRepair before Serve), so internal/server depends on
// neither internal/member nor internal/repair; a node without them answers
// the cluster opcodes with CodeBadRequest and behaves exactly like the
// single-node server it always was.

import (
	"context"
	"fmt"
	"hash/crc32"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/journal"
	"besteffs/internal/object"
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

// IndexEntries implements repair.Local: it summarizes every unexpired
// resident whose initial importance is at or above threshold. An expired
// resident is reclaimed already, only not yet swept, so no peer is told it
// exists. The CRC comes from the blob store's stored checksum
// (blob.Store.Sum), so indexing does not read payloads.
func (s *Server) IndexEntries(threshold float64) []wire.IndexEntry {
	now := s.clock()
	var entries []wire.IndexEntry
	for _, o := range s.engine.Residents() {
		initial := o.Importance.At(0)
		if initial < threshold || o.Expired(now) {
			continue
		}
		crc, err := s.blobs.Sum(o.ID)
		if err != nil {
			continue // evicted between snapshot and sum; not resident anymore
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
		Owner:      o.Owner(),
		Class:      o.Class,
		Version:    o.Version,
		Importance: o.Importance,
		AgeNanos:   int64(o.Age(s.clock())),
		Payload:    payload,
	}, nil
}

// storeReplica admits one replica and returns whether the copy was stored,
// beside the answer REPLICATE gives: replica admission shares the put result
// shape, with Admitted meaning "a copy at least this good now resides here"
// -- true for freshly stored copies and for the idempotent already-have-it
// case anti-entropy races expect, false only when the policy refused the
// object on this node. Only what is replica-specific happens here: the
// arrival is reconstructed from the advertised age, so a copy pushed an hour
// after its original write decays exactly like the original, a copy already
// at importance zero is refused (it was reclaimed wherever it came from), and a
// divergent resident is resolved by wire.Supersedes, the losing resident
// deleted in the winner's favour. The copy then stands for admission as a
// group of one, in the same mutation of its home shard as that delete, and
// commits like every other admission.
func (s *Server) storeReplica(m *wire.Replicate, now time.Duration) (bool, wire.Message) {
	if len(m.Payload) == 0 {
		return false, &wire.ErrorMsg{Code: wire.CodeBadRequest, Text: "server: bad replica: empty payload"}
	}
	arrival := now - time.Duration(m.AgeNanos)
	if arrival < 0 {
		arrival = 0 // peer has been up longer than us; clamp to our epoch
	}
	o, err := object.New(m.ID, int64(len(m.Payload)), arrival, m.Importance)
	if err != nil {
		return false, &wire.ErrorMsg{Code: wire.CodeBadRequest, Text: "server: bad replica: " + err.Error()}
	}
	if o.Expired(now) {
		return false, &wire.ErrorMsg{Code: wire.CodeBadRequest, Text: "server: replica already expired"}
	}
	o.SetOwner(m.Owner)
	o.Class = m.Class
	o.Version = max(m.Version, 1)

	sh := s.shardFor(m.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if existing, err := sh.unit.Get(m.ID); err == nil {
		held, _ := s.blobs.Sum(m.ID) // 0 when the payload is missing
		if !wire.Supersedes(o.Version, existing.Version, crc32.ChecksumIEEE(m.Payload), held) {
			return false, &wire.PutResult{Admitted: true}
		}
		if err := sh.unit.Delete(m.ID); err != nil {
			return false, &wire.ErrorMsg{Code: wire.CodeInternal, Text: err.Error()}
		}
		sh.removed(journal.KindDelete, m.ID, now)
	}
	var result [1]wire.Message
	s.admitShardGroup(sh, []candidate{{obj: o, payload: m.Payload}}, []int{0}, "replica", result[:], now)
	verdict, ok := result[0].(*wire.PutResult)
	if !ok {
		return false, result[0]
	}
	return verdict.Admitted, &wire.PutResult{Admitted: verdict.Admitted}
}

// StoreReplica implements repair.Local. It reports false when the resident
// copy already supersedes the incoming one or the policy refused it.
func (s *Server) StoreReplica(rep *wire.Replicate) (bool, error) {
	stored, resp := s.storeReplica(rep, s.clock())
	if e, ok := resp.(*wire.ErrorMsg); ok {
		return false, e
	}
	return stored, nil
}

// replicateAdmitted pushes one freshly admitted, above-threshold put to
// R-1 peers, synchronously: the response has not been written yet, so an
// acknowledged high-importance object already has its replicas. Runs after
// the shard's write lock is released -- pushes are network I/O and must not
// stall the shard or checkpoints. imp is the function the put's object was
// admitted with. The span context rides the push context so each outgoing
// REPLICATE hop joins the put's trace.
func (s *Server) replicateAdmitted(res wire.Message, m *wire.Put, imp importance.Function, sc telemetry.SpanContext) {
	if s.repl == nil {
		return
	}
	pr, ok := res.(*wire.PutResult)
	if !ok || !pr.Admitted {
		return
	}
	if imp.At(0) < s.repl.Threshold() {
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
		Importance: imp,
		AgeNanos:   0,
		Payload:    m.Payload,
	})
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
	if _, err := s.StoreReplica(rep); err != nil {
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
