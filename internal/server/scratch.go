package server

// Per-connection scratch for group dispatch. One coalesced run (or one BATCH
// frame) needs half a dozen transient slices -- the decoded messages, the
// put subgroup and its index, the admission's candidates and their routing
// -- whose lifetime ends when the group's responses are built. (What a
// shard's commit needs is staged on the shard, which its write lock
// serializes.) Allocating them per group made the allocator the
// second-hottest line of the BATCH profile, so each connection keeps its
// own: a session, which only the connection's goroutine touches. Unlike a
// sync.Pool, which a collection empties, a session keeps what it has grown
// for as long as the connection lives, so a group allocates the same count
// whenever the collector runs. What it keeps is bounded by the largest group
// the node accepts (WithMaxBatchSubs, wire.MaxBatchSubs at most), as the
// connection's frame buffer is by maxIdleBuffer.
//
// The scratch is used reentrantly: a coalesced group's dispatchGroup holds
// one while executeGroup, the put group and its routing take their own, so
// every call site takes and releases its own. Slices that escape into
// responses (results, outs entries' messages) are deliberately NOT kept --
// see the notes at their allocation sites.

import (
	"besteffs/internal/object"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// candidate is one object standing for admission: the object as the unit
// would store it, its importance function's encoding when it arrived
// encoded (the object then holds no function until its unit gives it one),
// the bytes to commit if it is admitted, and the trace its verdict event
// carries. A nil obj marks a member already answered (it failed validation)
// that takes no part in the admission.
type candidate struct {
	obj     *object.Object
	enc     []byte
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

// session is one connection's dispatch state, reused group after group: the
// decoder its requests are decoded by, the outcomes of its last group and
// the scratch its nested calls take. A zero session is ready to use.
type session struct {
	dec  wire.Decoder
	outs []dispatched
	free []*groupScratch // scratch not taken, most recently released last
}

// scratch returns a scratch with every slice empty but its capacity
// retained from earlier groups. Only the first group to nest this deep
// allocates one.
func (ss *session) scratch() *groupScratch {
	n := len(ss.free)
	if n == 0 {
		return new(groupScratch)
	}
	g := ss.free[n-1]
	ss.free = ss.free[:n-1]
	return g
}

// release clears the pointer-carrying slices (so kept scratch does not pin
// message payloads between requests) and gives the scratch back.
func (ss *session) release(g *groupScratch) {
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
	ss.free = append(ss.free, g)
}
