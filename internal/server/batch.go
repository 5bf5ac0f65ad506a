package server

// Admission. Every copy of an object this node takes in -- a PUT frame, the
// Put subs of a BATCH frame, the puts of a coalesced run, a REPLICATE, the
// new version of an UPDATE -- is admitted as a member of a group, and a lone
// PUT is a group of one. A group is split by home shard; each shard's slice
// goes through admitShardGroup (one store lock acquisition, one policy view
// snapshot, one resident ranking) and from there through commit, where every
// mutation of a shard ends: the only code that drops a payload, makes an
// admission durable or writes the journal. The rules they follow -- lock,
// metadata, payload, rollback, journal, sync -- are stated once, with their
// reasons, in DESIGN.md "The mutation discipline". An UPDATE plans
// differently (store.Unit.Update counts the superseded version's bytes as
// free) and ends in the same commit.
//
// Ordering contract of a group of requests (a BATCH frame or a coalesced
// run): its puts are admitted before every other request in it, regardless
// of position. A group mixing dependent operations on the same ID
// (delete-then-put) should order them across separate requests; within a
// group the put always wins the race.

import (
	"errors"
	"fmt"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/journal"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/store"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// handleBatch answers a BATCH frame: its subs run as one group under the
// batch frame's span context, so every sub -- the put group and the
// individually executed rest -- inherits the caller's trace and a traced
// batch's replica pushes carry the trace ID a traced single put's would.
func (s *Server) handleBatch(ss *session, m *wire.Batch, sc telemetry.SpanContext) wire.Message {
	if len(m.Subs) == 0 {
		return &wire.ErrorMsg{Code: wire.CodeBadRequest, Text: "empty batch"}
	}
	if len(m.Subs) > s.maxBatchSubs {
		return &wire.ErrorMsg{Code: wire.CodeBadRequest,
			Text: fmt.Sprintf("batch of %d sub-requests exceeds the node's limit of %d",
				len(m.Subs), s.maxBatchSubs)}
	}
	// Not kept: escapes into the BatchResult response.
	results := make([]wire.Message, len(m.Subs))
	for range m.Subs {
		ss.batchScs = append(ss.batchScs, sc)
	}
	s.executeGroup(ss, m.Subs, ss.batchScs, results)
	ss.batchScs = drop(ss.batchScs)
	return &wire.BatchResult{Results: results}
}

// executeGroup runs a group of decoded requests -- the subs of a BATCH or
// the frames of a run -- under the ordering contract above: the puts are
// gathered and admitted as one group, everything else executes
// individually afterwards in group order, and each answer lands in results
// at its request's position. scs aligns with msgs; a nil message (a frame
// that did not decode) is skipped and its result left alone. A BATCH among
// msgs runs this again, after the puts are answered and their slices
// emptied.
func (s *Server) executeGroup(ss *session, msgs []wire.Message, scs []telemetry.SpanContext, results []wire.Message) {
	for i, msg := range msgs {
		if p, ok := msg.(*wire.Put); ok {
			ss.puts = append(ss.puts, p)
			ss.putScs = append(ss.putScs, scs[i])
			ss.putIdx = append(ss.putIdx, i)
		}
	}
	if len(ss.puts) > 0 {
		for k, res := range s.executePutGroup(ss, ss.puts, ss.putScs, s.clock()) {
			results[ss.putIdx[k]] = res
		}
	}
	ss.puts, ss.putScs, ss.putIdx = drop(ss.puts), drop(ss.putScs), drop(ss.putIdx)
	for i, msg := range msgs {
		if msg == nil || results[i] != nil {
			continue
		}
		results[i] = s.executeTraced(ss, msg, scs[i])
	}
}

// executePutGroup admits a group of client puts arriving now, then -- with
// repair attached -- synchronously pushes each admitted above-threshold one
// to its replicas before its response leaves the node, after the checkpoint
// locks are released. Returns one response per put, in group order. scs
// aligns with puts: each put's verdict event carries its own frame's trace
// and its pushes ride its own frame's span context.
func (s *Server) executePutGroup(ss *session, puts []*wire.Put, scs []telemetry.SpanContext, now time.Duration) []wire.Message {
	// Not kept: escapes into the group's responses.
	results := make([]wire.Message, len(puts))
	for i, m := range puts {
		enc := m.ImportanceEncoding()
		o, bad := s.offered(m.ID, m.Owner, m.Class, m.Importance, enc, m.Payload, now)
		if bad != nil {
			results[i] = bad
		} else if m.Version > 0 {
			o.Version = m.Version
		}
		ss.cands = append(ss.cands, candidate{obj: o, enc: enc, payload: m.Payload, trace: scs[i].Trace})
	}
	s.admitGroup(ss, ss.cands, results, now)
	for i, m := range puts {
		if o := ss.cands[i].obj; o != nil {
			s.replicateAdmitted(results[i], m, o.Importance, scs[i])
		}
	}
	ss.cands = drop(ss.cands)
	return results
}

// offered validates what a client's PUT or UPDATE offers and builds the
// object it would store, arriving now, as object.New would. A put a
// connection's decoder decoded carries its function as enc, already
// checked, and the object is built without one: its unit gives it its run's
// (store.Unit.PutBatchEncoded). A nil object comes with the refusal to
// answer instead.
func (s *Server) offered(id object.ID, owner string, class object.Class, imp importance.Function, enc,
	payload []byte, now time.Duration) (*object.Object, wire.Message) {
	if len(payload) == 0 {
		return nil, &wire.ErrorMsg{Code: wire.CodeBadRequest, Text: "empty payload"}
	}
	s.met.putBytes.Observe(float64(len(payload)))
	var refused error
	switch {
	case id == "":
		refused = object.ErrEmptyID
	case imp == nil && enc == nil:
		refused = object.ErrNilImportance
	}
	if refused != nil {
		return nil, &wire.ErrorMsg{Code: wire.CodeBadRequest, Text: refused.Error()}
	}
	o := &object.Object{ID: id, Size: int64(len(payload)), Arrival: now, Importance: imp, Class: class, Version: 1}
	o.SetOwner(owner)
	return o, nil
}

// admitGroup admits the candidates that carry an object, split by home
// shard: each shard's slice is one mutation under that shard's write lock, so
// a group spanning shards takes each shard's lock exactly once. Strictly
// sequential, in shard order: at most one shard lock is ever held, so the
// group path cannot deadlock against the coordinated checkpoint's ascending
// lock sweep. results aligns with cands.
func (s *Server) admitGroup(ss *session, cands []candidate, results []wire.Message, now time.Duration) {
	for _, c := range cands {
		target := -1
		if c.obj != nil {
			target = s.engine.Place(c.obj, now)
		}
		ss.route = append(ss.route, target)
	}
	for si, sh := range s.shards {
		ss.shardIdx = ss.shardIdx[:0]
		for i, target := range ss.route {
			if target == si {
				ss.shardIdx = append(ss.shardIdx, i)
			}
		}
		if len(ss.shardIdx) > 0 {
			sh.mu.Lock()
			s.admitShardGroup(sh, cands, ss.shardIdx, "", results, now)
			sh.mu.Unlock()
		}
	}
	ss.route, ss.shardIdx = drop(ss.route), drop(ss.shardIdx)
}

// admitShardGroup admits one shard's slice of a group as one store
// transaction and commits it. The caller holds sh.mu across the call (replica
// ingest also deletes the copy it supersedes under that same acquisition).
// gidx lists the slice's positions in cands and results; detail annotates
// the verdict events ("replica" for replica ingest). Metadata first, payloads
// second: a concurrent Get of a new ID in the gap sees not-found, never a
// torn object. A payload failure admits none of the slice.
func (s *Server) admitShardGroup(sh *shard, cands []candidate, gidx []int, detail string,
	results []wire.Message, now time.Duration) {
	sh.wall = time.Now()
	defer func() { sh.wall = time.Time{} }()
	for _, ri := range gidx {
		sh.objs = append(sh.objs, cands[ri].obj)
		sh.encs = append(sh.encs, cands[ri].enc)
	}
	outcomes := sh.unit.PutBatchEncoded(sh.objs, sh.encs, now)
	// The answers escape into the responses: one array of them, and one of
	// the victims' IDs they report.
	evicted := 0
	for _, oc := range outcomes {
		evicted += len(oc.Decision.Victims)
	}
	answers := make([]wire.PutResult, len(gidx))
	ids := make([]object.ID, 0, evicted)
	for i, ri := range gidx {
		o := cands[ri].obj
		if err := outcomes[i].Err; err != nil {
			if errors.Is(err, store.ErrDuplicateID) {
				results[ri] = &wire.ErrorMsg{Code: wire.CodeDuplicate, Text: string(o.ID)}
			} else {
				results[ri] = &wire.ErrorMsg{Code: wire.CodeInternal, Text: err.Error()}
			}
			continue
		}
		d := outcomes[i].Decision
		s.recordAdmission(o, d, cands[ri].trace, detail, sh.wall)
		if d.Admit {
			sh.stage(o, cands[ri].payload)
		}
		ids = putResult(&answers[i], d, ids)
		results[ri] = &answers[i]
	}
	if err := s.commit(sh); err != nil {
		for _, ri := range gidx {
			if res, ok := results[ri].(*wire.PutResult); ok && res.Admitted {
				results[ri] = &wire.ErrorMsg{Code: wire.CodeInternal, Text: err.Error()}
			}
		}
	}
}

// stage queues one object the unit has admitted for commit: its payload, and
// the KindPut record that makes it live. The record's At is the object's
// arrival -- now for a client's put or update, the reconstructed arrival for
// a replica -- so replay restores the decay clock the object was admitted
// under. The caller holds sh.mu.
func (sh *shard) stage(o *object.Object, payload []byte) {
	sh.ids = append(sh.ids, o.ID)
	sh.payloads = append(sh.payloads, payload)
	sh.recs = append(sh.recs, journal.Record{
		Kind: journal.KindPut, At: o.Arrival, ID: o.ID, Size: o.Size,
		Owner: o.Owner(), Class: o.Class, Version: o.Version,
		Importance: o.Importance,
	})
}

// commit ends the mutation sh.mu's holder has made on sh.unit, and is where
// every mutation ends. The unit has already changed; what it removed and
// admitted is staged on sh. The removed objects' payloads leave the blob
// index; the admitted payloads are committed as one group -- one write and
// one sync on a file store; then the removals and the admissions' KindPut
// records go to the node's WAL as one batch, removals first so replay frees
// space before it is consumed, followed by one sync when the mutation
// admitted something: a payload is durable before the record that makes it
// live, and the mutation costs one journal write and at most two syncs
// whatever its size. If the payload store refuses the group, every staged
// member leaves the unit again -- none is resident without bytes; the
// victims they preempted stay evicted and are journaled -- and the store's
// error is returned for the caller to answer the members with; a mutation
// that admitted nothing always returns nil. Journal failures are logged,
// never fatal to the request.
func (s *Server) commit(sh *shard) error {
	// stage appends after every removal, so the KindPuts are recs' tail.
	recs, removals := sh.recs, sh.recs[:len(sh.recs)-len(sh.ids)]
	for _, r := range removals {
		if r.Kind == journal.KindRejuvenate {
			continue // changes the annotation, not the payload
		}
		if err := s.blobs.Delete(r.ID); err != nil {
			s.log.Error("drop removed payload", "id", r.ID, "err", err)
		}
	}
	var refused error
	if len(sh.ids) > 0 {
		if refused = s.blobs.PutBatch(sh.ids, sh.payloads); refused != nil {
			for _, id := range sh.ids {
				if err := sh.unit.Delete(id); err != nil {
					s.log.Error("roll back admission", "id", id, "err", err)
				}
			}
			recs = removals
		}
	}
	if s.wal != nil && len(recs) > 0 {
		if _, err := s.wal.AppendBatch(recs); err != nil {
			s.log.Error("journal append batch", "records", len(recs), "err", err)
		} else if len(recs) > len(removals) {
			if err := s.wal.Sync(); err != nil {
				s.log.Error("journal sync batch", "err", err)
			}
		}
	}
	// Empty the staging without pinning payloads or importance functions
	// until the next mutation.
	sh.recs, sh.objs, sh.encs = drop(sh.recs), drop(sh.objs), drop(sh.encs)
	sh.ids, sh.payloads = drop(sh.ids), drop(sh.payloads)
	return refused
}

// putResult renders an executed admission plan as the PUT answer in res,
// whose Evicted list it appends to ids, and returns ids.
func putResult(res *wire.PutResult, d policy.Decision, ids []object.ID) []object.ID {
	*res = wire.PutResult{
		Admitted: d.Admit,
		Boundary: d.HighestPreempted,
		Reason:   uint8(d.Reason),
	}
	if d.Admit && len(d.Victims) > 0 {
		from := len(ids)
		for _, v := range d.Victims {
			ids = append(ids, v.ID)
		}
		res.Evicted = ids[from:len(ids):len(ids)]
	}
	return ids
}

// recordAdmission flight-records one admission verdict: the object, its
// initial importance, and the importance boundary that admitted or blocked
// it. A zero wall is stamped by the recorder.
func (s *Server) recordAdmission(o *object.Object, d policy.Decision, trace, detail string, wall time.Time) {
	kind := telemetry.EventAdmit
	if !d.Admit {
		kind = telemetry.EventReject
	}
	s.events.Record(telemetry.Event{
		Kind: kind, ID: string(o.ID), Trace: trace,
		Importance: o.Importance.At(0), Boundary: d.HighestPreempted, Detail: detail, Wall: wall,
	})
}

// handleUpdate supersedes a resident version with new bytes. The plan is
// store.Unit.Update's -- the old version's bytes count as free, and it is
// evicted first -- and the admitted version commits like any other
// admission. If its payload is refused the object is lost: the old version
// is already gone (single-copy semantics).
func (s *Server) handleUpdate(m *wire.Update, now time.Duration, sc telemetry.SpanContext) wire.Message {
	o, bad := s.offered(m.ID, m.Owner, m.Class, m.Importance, nil, m.Payload, now)
	if bad != nil {
		return bad
	}
	// An update routes to the shard already holding the object.
	sh := s.shardFor(m.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d, err := sh.unit.Update(o, now)
	if err != nil {
		if errors.Is(err, store.ErrNotResident) {
			return &wire.ErrorMsg{Code: wire.CodeNotFound, Text: string(m.ID)}
		}
		return &wire.ErrorMsg{Code: wire.CodeInternal, Text: err.Error()}
	}
	s.recordAdmission(o, d, sc.Trace, "", time.Time{})
	res := new(wire.PutResult)
	putResult(res, d, nil)
	if !d.Admit {
		return res
	}
	// The unit stored a copy of o with the version bumped; that is the
	// object the journal must record.
	stored, err := sh.unit.Get(o.ID)
	if err == nil {
		sh.stage(stored, m.Payload)
	}
	// The superseded version and the victims are gone either way.
	if err := errors.Join(err, s.commit(sh)); err != nil {
		return &wire.ErrorMsg{Code: wire.CodeInternal, Text: err.Error()}
	}
	return res
}
