package server

// Pooled scratch for group dispatch. One coalesced run (or one BATCH
// frame) needs half a dozen transient slices -- the decoded messages, the
// put subgroup and its index, the admission's candidate, object, payload and
// journal-record staging -- whose lifetime ends when the group's responses
// are built. Allocating them per group made the allocator the second-hottest
// line of the BATCH profile; a sync.Pool amortizes them to zero in steady
// state.
//
// The pool is used reentrantly: a coalesced group's dispatchGroup holds one
// scratch while executeGroup, the put group and each shard's admission take
// their own, so every call site does its own Get/Put pair. Slices that
// escape into responses (results, outs entries' messages) are deliberately
// NOT pooled -- see the //lint:ignore hotpath notes at their allocation
// sites.

import (
	"sync"

	"besteffs/internal/journal"
	"besteffs/internal/object"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// candidate is one object standing for admission: the object as the unit
// would store it, the bytes to commit if it is admitted, and the trace its
// verdict event carries. A nil obj marks a member already answered (it
// failed validation) that takes no part in the admission.
type candidate struct {
	obj     *object.Object
	payload []byte
	trace   string
}

// groupScratch carries one group dispatch's transient slices.
type groupScratch struct {
	msgs    []wire.Message
	results []wire.Message
	puts    []*wire.Put
	scs     []telemetry.SpanContext
	cands   []candidate
	route   []int
	idx     []int
	objs    []*object.Object
	// ids, payloads and recs are the admitted members of a shard group as
	// commitAdmitted takes them -- ids and payloads as blob.Store.PutBatch
	// does, recs as WAL.AppendBatch does -- with idx their positions in the
	// group's results.
	ids      []object.ID
	payloads [][]byte
	recs     []journal.Record
}

// stage queues one admitted object for commitAdmitted: its payload, and the
// KindPut record that makes it live. The record's At is the object's
// arrival -- now for a client's put or update, the reconstructed arrival for
// a replica -- so replay restores the decay clock the object was admitted
// under. ri is the member's position in the group's results.
func (g *groupScratch) stage(o *object.Object, payload []byte, ri int) {
	//lint:ignore hotpath grows the pooled scratch once, then amortized
	g.ids = append(g.ids, o.ID)
	//lint:ignore hotpath grows the pooled scratch once, then amortized
	g.payloads = append(g.payloads, payload)
	//lint:ignore hotpath grows the pooled scratch once, then amortized
	g.idx = append(g.idx, ri)
	//lint:ignore hotpath grows the pooled scratch once, then amortized
	g.recs = append(g.recs, journal.Record{
		Kind: journal.KindPut, At: o.Arrival, ID: o.ID, Size: o.Size,
		Owner: o.Owner, Class: o.Class, Version: uint32(o.Version),
		Importance: o.Importance,
	})
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
	clear(g.results)
	clear(g.puts)
	clear(g.cands)
	clear(g.objs)
	clear(g.recs)
	clear(g.ids)
	clear(g.payloads)
	g.msgs = g.msgs[:0]
	g.results = g.results[:0]
	g.puts = g.puts[:0]
	g.scs = g.scs[:0]
	g.cands = g.cands[:0]
	g.route = g.route[:0]
	g.idx = g.idx[:0]
	g.objs = g.objs[:0]
	g.recs = g.recs[:0]
	g.ids = g.ids[:0]
	g.payloads = g.payloads[:0]
	scratchPool.Put(g)
}
