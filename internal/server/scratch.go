package server

// A connection's dispatch state. One coalesced run (or one BATCH frame)
// needs half a dozen transient slices -- the decoded messages, the put
// subgroup and its positions, the admission's candidates and their routing
// -- whose lifetime ends when the group's responses are built. (What a
// shard's commit needs is staged on the shard, which its write lock
// serializes.) Allocating them per group made the allocator the
// second-hottest line of the BATCH profile, so each connection keeps them
// in its session, which only the connection's goroutine touches. A session
// keeps what it has grown for as long as the connection lives, so a group
// allocates the same count whenever the collector runs. What it keeps is
// bounded by the largest group the node accepts (WithMaxBatchSubs,
// wire.MaxBatchSubs at most), as the connection's frame buffer is by
// maxIdleBuffer.
//
// Every slice is a field with one user, and one user at a time. The one
// reentry is a BATCH in a coalesced run: the run's executeGroup runs the
// BATCH, whose executeGroup runs the subs, but only after the outer call
// has admitted its puts and emptied its put slices. It goes no deeper,
// because BATCHes never nest (wire.ErrBatchNested). Each user empties its
// slices with drop when it is done, so kept scratch pins no frame bytes
// between groups (DESIGN.md "Who holds a payload's bytes"). Slices that
// escape into responses are not kept; see the notes at their allocation
// sites.

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

// session is one connection's dispatch state, reused group after group: the
// decoder its requests are decoded by, the outcomes of its last group, and
// the scratch of the group path, each slice named for its one user. A zero
// session is ready to use.
type session struct {
	dec  wire.Decoder
	outs []dispatched

	// dispatchGroup: the run's decoded requests, their span contexts and
	// their answers.
	msgs    []wire.Message
	scs     []telemetry.SpanContext
	results []wire.Message
	// handleBatch: the span context every sub runs under.
	batchScs []telemetry.SpanContext
	// executeGroup: the group's puts, their span contexts and their
	// positions in the group.
	puts   []*wire.Put
	putScs []telemetry.SpanContext
	putIdx []int
	// executePutGroup: the puts as candidates for admission.
	cands []candidate
	// admitGroup: each candidate's home shard, and one shard's candidates.
	route    []int
	shardIdx []int
}

// drop empties a scratch slice, keeping its capacity, and clears what it
// held so it pins nothing until it is used again.
func drop[S ~[]E, E any](s S) S {
	clear(s)
	return s[:0]
}
