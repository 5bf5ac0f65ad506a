package server

// BATCH dispatch. A batch frame answers every sub-request in one response
// frame, but the win is not only round trips: all Put subs are admitted as
// ONE group -- one store lock acquisition, one policy view snapshot, one
// resident ranking (policy.PlanGroup) -- and made durable by one payload
// write+sync and one WAL append+sync barrier instead of N of each. Non-Put
// subs (gets, deletes, stats, probes...) execute individually after the put
// group, in sub order.
//
// Ordering contract: put subs are admitted before every other sub in the
// batch, regardless of position. A batch mixing dependent operations on the
// same ID (delete-then-put) should order them across separate requests;
// within a batch the put always wins the race.

import (
	"errors"
	"fmt"
	"time"

	"besteffs/internal/journal"
	"besteffs/internal/object"
	"besteffs/internal/store"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// handleBatch dispatches a batch under the batch frame's span context:
// every sub-request -- the put group and the individually executed rest --
// inherits the caller's trace, so a traced batch's replica pushes carry the
// same trace ID a traced single put would (they were silently dropped here
// before the span context existed).
//
//besteffs:hotpath
func (s *Server) handleBatch(m *wire.Batch, now time.Duration, sc telemetry.SpanContext) wire.Message {
	if len(m.Subs) == 0 {
		return &wire.ErrorMsg{Code: wire.CodeBadRequest, Text: "empty batch"}
	}
	if s.maxBatchSubs > 0 && len(m.Subs) > s.maxBatchSubs {
		return &wire.ErrorMsg{Code: wire.CodeBadRequest,
			//lint:ignore hotpath the reject path formats its refusal once
			Text: fmt.Sprintf("batch of %d sub-requests exceeds the node's limit of %d",
				len(m.Subs), s.maxBatchSubs)}
	}
	//lint:ignore hotpath escapes into the BatchResult response
	results := make([]wire.Message, len(m.Subs))
	scratch := getScratch()
	defer scratch.release()
	for i, sub := range m.Subs {
		if p, ok := sub.(*wire.Put); ok {
			//lint:ignore hotpath grows the pooled scratch once, then amortized
			scratch.puts = append(scratch.puts, p)
			//lint:ignore hotpath grows the pooled scratch once, then amortized
			scratch.scs = append(scratch.scs, sc)
			//lint:ignore hotpath grows the pooled scratch once, then amortized
			scratch.idx = append(scratch.idx, i)
		}
	}
	if len(scratch.puts) > 0 {
		for i, res := range s.executePutGroup(scratch.puts, scratch.scs, now) {
			results[scratch.idx[i]] = res
		}
	}
	for i, sub := range m.Subs {
		if results[i] != nil {
			continue
		}
		results[i] = s.executeTraced(sub, sc)
	}
	return &wire.BatchResult{Results: results}
}

// admitPutGroup admits a group of puts, split by target shard: each
// shard's sub-group is one store transaction journaled through that
// shard's append+sync barrier, so a batch spanning shards takes each
// shard's lock exactly once and never holds two at a time. Returns one
// response per put, in group order. Replication of the admitted subs
// happens in executePutGroup, after the checkpoint locks are released. scs
// aligns with puts and links each verdict's flight-recorder event to its
// frame's trace.
//
//besteffs:hotpath
func (s *Server) admitPutGroup(puts []*wire.Put, scs []telemetry.SpanContext, now time.Duration) []wire.Message {
	//lint:ignore hotpath escapes into the group's responses
	results := make([]wire.Message, len(puts))
	scratch := getScratch()
	defer scratch.release()
	objs := scratch.objs
	for range puts {
		//lint:ignore hotpath grows the pooled scratch once, then amortized
		objs = append(objs, nil)
	}
	scratch.objs = objs
	for i, m := range puts {
		if len(m.Payload) == 0 {
			results[i] = &wire.ErrorMsg{Code: wire.CodeBadRequest, Text: "empty payload"}
			continue
		}
		s.met.putBytes.Observe(float64(len(m.Payload)))
		o, err := object.New(m.ID, int64(len(m.Payload)), now, m.Importance)
		if err != nil {
			results[i] = &wire.ErrorMsg{Code: wire.CodeBadRequest, Text: err.Error()}
			continue
		}
		o.Owner = m.Owner
		o.Class = m.Class
		if m.Version > 0 {
			o.Version = int(m.Version)
		}
		objs[i] = o
	}
	// Route each valid put, then walk the shards in index order, gathering
	// and admitting each shard's sub-group. Strictly sequential: at most
	// one shard lock is ever held, so the group path cannot deadlock
	// against the coordinated checkpoint's ascending lock sweep.
	route := scratch.idx
	for _, o := range objs {
		target := -1
		if o != nil {
			target = s.engine.Place(o, now)
		}
		//lint:ignore hotpath grows the pooled scratch once, then amortized
		route = append(route, target)
	}
	scratch.idx = route
	sub := getScratch()
	defer sub.release()
	for si := range s.shards {
		sub.puts = sub.puts[:0]
		sub.objs = sub.objs[:0]
		sub.scs = sub.scs[:0]
		sub.idx = sub.idx[:0]
		for i, target := range route {
			if target != si {
				continue
			}
			//lint:ignore hotpath grows the pooled scratch once, then amortized
			sub.puts = append(sub.puts, puts[i])
			//lint:ignore hotpath grows the pooled scratch once, then amortized
			sub.objs = append(sub.objs, objs[i])
			var sc telemetry.SpanContext
			if i < len(scs) {
				sc = scs[i]
			}
			//lint:ignore hotpath grows the pooled scratch once, then amortized
			sub.scs = append(sub.scs, sc)
			//lint:ignore hotpath grows the pooled scratch once, then amortized
			sub.idx = append(sub.idx, i)
		}
		if len(sub.puts) > 0 {
			s.admitShardGroup(s.shards[si], sub.puts, sub.objs, sub.scs, sub.idx, results, now)
		}
	}
	return results
}

// admitShardGroup admits one shard's slice of a put group as one store
// transaction under the shard's checkpoint read-lock -- held across the
// unit mutation, the payload commit AND the journal barrier, the same
// clean-cut discipline as single puts: no record of this sub-group can land
// after the shard's checkpoint barrier while its effect is missing from the
// snapshot. The admitted members' payloads go to the blob store as one
// group -- one write and one sync on a file store -- before their KindPut
// records are journaled, so the group costs two syncs, and a payload
// failure admits none of it. gidx maps sub-group positions back to group
// positions in results. puts, objs and scs align with each other.
//
//besteffs:hotpath
func (s *Server) admitShardGroup(sh *shard, puts []*wire.Put, objs []*object.Object,
	scs []telemetry.SpanContext, gidx []int, results []wire.Message, now time.Duration) {
	scratch := getScratch()
	defer scratch.release()
	sh.chkMu.RLock()
	defer sh.chkMu.RUnlock()
	outcomes := sh.unit.PutBatch(objs, now)
	recs, ids, payloads, admitted := scratch.recs, scratch.ids, scratch.payloads, scratch.idx
	for i, m := range puts {
		ri := gidx[i]
		if err := outcomes[i].Err; err != nil {
			if errors.Is(err, store.ErrDuplicateID) {
				results[ri] = &wire.ErrorMsg{Code: wire.CodeDuplicate, Text: string(m.ID)}
			} else {
				results[ri] = &wire.ErrorMsg{Code: wire.CodeInternal, Text: err.Error()}
			}
			continue
		}
		d := outcomes[i].Decision
		res := &wire.PutResult{
			Admitted: d.Admit,
			Boundary: d.HighestPreempted,
			Reason:   uint8(d.Reason),
		}
		var trace string
		if i < len(scs) {
			trace = scs[i].Trace
		}
		s.recordAdmission(m.ID, m.Importance.At(0), d.Admit, d.HighestPreempted, trace)
		if d.Admit {
			o := objs[i]
			//lint:ignore hotpath grows the pooled scratch once, then amortized
			ids = append(ids, o.ID)
			//lint:ignore hotpath grows the pooled scratch once, then amortized
			payloads = append(payloads, m.Payload)
			//lint:ignore hotpath grows the pooled scratch once, then amortized
			admitted = append(admitted, ri)
			//lint:ignore hotpath grows the pooled scratch once, then amortized
			recs = append(recs, journal.Record{
				Kind: journal.KindPut, At: now, ID: o.ID, Size: o.Size,
				Owner: o.Owner, Class: o.Class, Version: uint32(o.Version),
				Importance: o.Importance,
			})
			if len(d.Victims) > 0 {
				//lint:ignore hotpath exact-sized; escapes into the response
				res.Evicted = make([]object.ID, len(d.Victims))
				for vi, v := range d.Victims {
					res.Evicted[vi] = v.ID
				}
			}
		}
		results[ri] = res
	}
	// Return any regrown backing arrays to the pool.
	scratch.recs, scratch.ids, scratch.payloads, scratch.idx = recs, ids, payloads, admitted
	// Metadata first, payloads second, exactly like handlePut: a concurrent
	// Get in the gap sees not-found, never a torn object. The payloads are
	// durable before the first KindPut is appended.
	if len(ids) == 0 {
		return
	}
	if err := s.blobs.PutBatch(ids, payloads); err != nil {
		s.rollBackGroup(sh, ids, admitted, results, err)
		return
	}
	s.journalGroup(sh, recs)
}

// rollBackGroup undoes the admissions of a shard group whose payloads the
// blob store refused: every admitted member leaves the unit again and is
// answered with the error, so none of the group is resident without bytes.
// The victims the group preempted stay evicted, as they do when a single
// put's payload fails.
func (s *Server) rollBackGroup(sh *shard, ids []object.ID, admitted []int, results []wire.Message, cause error) {
	for i, id := range ids {
		if err := sh.unit.Delete(id); err != nil {
			//lint:ignore hotpath error-path logging on a failed rollback
			s.log.Error("roll back admission", "id", id, "err", err)
		}
		results[admitted[i]] = &wire.ErrorMsg{Code: wire.CodeInternal, Text: cause.Error()}
	}
}

// journalGroup records a group of entries through one append+sync barrier
// on the shard's WAL. Eviction records for the group were already appended
// by the unit's hook during PutBatch, so replay order stays valid: space is
// freed before it is consumed. Failures are logged, never fatal, matching
// journalTo.
//
//besteffs:hotpath
func (s *Server) journalGroup(sh *shard, recs []journal.Record) {
	if sh.wal == nil || len(recs) == 0 {
		return
	}
	if _, err := sh.wal.AppendBatch(recs); err != nil {
		//lint:ignore hotpath error-path logging
		s.log.Error("journal append batch", "records", len(recs), "err", err)
		return
	}
	if err := sh.wal.Sync(); err != nil {
		//lint:ignore hotpath error-path logging
		s.log.Error("journal sync batch", "err", err)
	}
}
