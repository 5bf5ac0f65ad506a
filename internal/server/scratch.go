package server

// Pooled scratch for group dispatch. One coalesced run (or one BATCH
// frame) needs half a dozen transient slices -- the decoded messages, the
// put subgroup and its index, the admission's object, payload and
// journal-record staging -- whose lifetime ends when the group's responses
// are built. Allocating them per group made the allocator the second-hottest
// line of the BATCH profile; a sync.Pool amortizes them to zero in steady
// state.
//
// The pool is used reentrantly: a coalesced group's dispatchGroup holds one
// scratch while a BATCH sub-frame's handleBatch takes another, so every
// call site does its own Get/Put pair. Slices that escape into responses
// (results, outs entries' messages) are deliberately NOT pooled -- see the
// //lint:ignore hotpath notes at their allocation sites.

import (
	"sync"

	"besteffs/internal/journal"
	"besteffs/internal/object"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// groupScratch carries one group dispatch's transient slices.
type groupScratch struct {
	msgs []wire.Message
	puts []*wire.Put
	scs  []telemetry.SpanContext
	idx  []int
	objs []*object.Object
	recs []journal.Record
	// ids and payloads are the admitted members of a shard group, as
	// blob.Store.PutBatch takes them.
	ids      []object.ID
	payloads [][]byte
}

var scratchPool = sync.Pool{New: func() any { return new(groupScratch) }}

// getScratch returns a scratch with every slice empty but its capacity
// retained from earlier groups.
func getScratch() *groupScratch {
	return scratchPool.Get().(*groupScratch)
}

// release clears the pointer-carrying slices (so pooled scratch does not
// pin message payloads between requests) and returns the scratch.
func (g *groupScratch) release() {
	clear(g.msgs)
	clear(g.puts)
	clear(g.objs)
	clear(g.recs)
	clear(g.ids)
	clear(g.payloads)
	g.msgs = g.msgs[:0]
	g.puts = g.puts[:0]
	g.scs = g.scs[:0]
	g.idx = g.idx[:0]
	g.objs = g.objs[:0]
	g.recs = g.recs[:0]
	g.ids = g.ids[:0]
	g.payloads = g.payloads[:0]
	scratchPool.Put(g)
}
