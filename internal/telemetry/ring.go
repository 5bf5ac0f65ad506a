package telemetry

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"
)

// Ring is a fixed-size lock-free ring of records: the node's span ring, its
// flight recorder and its density trajectory are each one. Writers claim a
// slot with one atomic add and publish with one atomic pointer store; a ring
// under concurrent writers loses nothing but arrival order, which snapshots
// restore by sorting. Readers never coordinate with writers: they see
// whatever set of recent records was published when they looked. A nil ring
// drops what is recorded and holds nothing, so call sites need no
// enabled-check.
type Ring[T any] struct {
	slots []atomic.Pointer[T]
	next  atomic.Uint64
	// order sorts snapshots, oldest first.
	order func(a, b T) int
	// stamp, when set, fills in a record's fields from its claim index
	// before it is published.
	stamp func(v *T, i uint64)
}

// defaultRingSize holds a few minutes of traced traffic, or the recent
// decision history, of a busy node.
const defaultRingSize = 4096

func newRing[T any](size int, order func(a, b T) int, stamp func(*T, uint64)) *Ring[T] {
	if size <= 0 {
		size = defaultRingSize
	}
	return &Ring[T]{slots: make([]atomic.Pointer[T], size), order: order, stamp: stamp}
}

// NewSpanRing builds a ring of the most recent size completed spans,
// ordered by start time (size <= 0 uses defaultRingSize).
func NewSpanRing(size int) *Ring[Span] {
	return newRing(size, func(a, b Span) int { return a.Start.Compare(b.Start) }, nil)
}

// NewRecorder builds the flight recorder: a ring of the most recent size
// events, cheap enough to record every admission verdict on the hot path
// and bounded enough to leave running forever. Record stamps each event's
// Seq and Wall, and snapshots are in Seq order (size <= 0 uses
// defaultRingSize). It is the node's black box: the EVENTS wire op, the
// status endpoint, SIGQUIT and failing chaos tests all dump it.
func NewRecorder(size int) *Ring[Event] {
	return newRing(size, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) }, func(e *Event, i uint64) {
		e.Seq = i
		e.Wall = time.Now()
	})
}

// NewSampleRing builds a ring of the most recent size density samples,
// ordered by sample time (size <= 0 uses defaultRingSize).
func NewSampleRing(size int) *Ring[DensitySample] {
	return newRing(size, func(a, b DensitySample) int { return cmp.Compare(a.At, b.At) }, nil)
}

// Record publishes one record; the ring keeps its own copy.
func (r *Ring[T]) Record(v T) {
	if r == nil {
		return
	}
	i := r.next.Add(1) - 1
	if r.stamp != nil {
		r.stamp(&v, i)
	}
	r.slots[i%uint64(len(r.slots))].Store(&v)
}

// Len reports how many records were ever recorded (not how many the ring
// still holds).
func (r *Ring[T]) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Snapshot returns the records currently held, oldest first.
func (r *Ring[T]) Snapshot() []T { return r.Select(nil) }

// Select returns the held records keep accepts, oldest first (every held
// record when keep is nil).
func (r *Ring[T]) Select(keep func(*T) bool) []T {
	if r == nil {
		return nil
	}
	var out []T
	if keep == nil {
		// One allocation for a full copy: growing it by append would hold
		// up to one and a half copies of a full ring at once.
		out = make([]T, 0, min(r.next.Load(), uint64(len(r.slots))))
	}
	for i := range r.slots {
		if v := r.slots[i].Load(); v != nil && (keep == nil || keep(v)) {
			out = append(out, *v)
		}
	}
	slices.SortFunc(out, r.order)
	return out
}

// Dump writes the held records to w, one per line, oldest first -- for the
// flight recorder, the postmortem format SIGQUIT and failing chaos tests
// emit (see Event.String).
func (r *Ring[T]) Dump(w io.Writer) {
	for _, v := range r.Snapshot() {
		fmt.Fprintln(w, v)
	}
}
