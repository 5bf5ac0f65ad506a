package server

// Pooled scratch for group dispatch. One coalesced run (or one BATCH
// frame) needs half a dozen transient slices -- the decoded messages, the
// put subgroup and its index, the admission's candidates and their routing
// -- whose lifetime ends when the group's responses are built. (What a
// shard's commit needs is staged on the shard, which its write lock
// serializes.) Allocating them per group made the allocator the
// second-hottest line of the BATCH profile; a sync.Pool amortizes them to
// zero in steady state.
//
// The pool is used reentrantly: a coalesced group's dispatchGroup holds one
// scratch while executeGroup, the put group and its routing take their own,
// so every call site does its own Get/Put pair. Slices that escape into
// responses (results, outs entries' messages) are deliberately NOT pooled --
// see the notes at their allocation sites.

import (
	"sync"

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
	g.msgs = g.msgs[:0]
	g.results = g.results[:0]
	g.puts = g.puts[:0]
	g.scs = g.scs[:0]
	g.cands = g.cands[:0]
	g.route = g.route[:0]
	g.idx = g.idx[:0]
	scratchPool.Put(g)
}
