package telemetry

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

// Ring is a fixed-size ring of records: the node's span ring, its flight
// recorder and its density trajectory are each one. It holds the records by
// value behind one mutex: a writer copies its record into the next slot and
// a reader copies the held records out, so recording allocates nothing and
// nothing a caller passes in escapes. (A lock-free publish would have to go
// through a pointer per record: a record spans several words, and a reader
// copying a slot a writer is filling could read a torn string.) The slots
// grow as records arrive, up to the ring's size, so an idle ring costs
// nothing. A nil ring drops what is recorded and holds nothing, so call
// sites need no enabled-check.
type Ring[T any] struct {
	mu    sync.Mutex
	slots []T // record i is in slots[i%size]; grows up to size
	size  int
	next  uint64 // records ever made
	// order sorts snapshots, oldest first.
	order func(a, b T) int
	// stamp, when set, fills in a record's fields from its index as it is
	// recorded.
	stamp func(v *T, i uint64)
}

// defaultRingSize is the number of records a ring holds. How much time that
// covers depends on the record's rate. The flight recorder takes an admit or
// reject event per put and an evict event per victim, so on a saturated
// node, where each put preempts one resident, it holds the decisions of the
// last 2 048 puts: about 70 ms at 30 000 puts a second, and about 15 ms at
// the 130 000 a second of 64-wide batches. The span ring holds the last
// 4 096 traced hops, and the density ring, at one sample every ten seconds
// (besteffsd's default), over eleven hours.
const defaultRingSize = 4096

func newRing[T any](size int, order func(a, b T) int, stamp func(*T, uint64)) *Ring[T] {
	if size <= 0 {
		size = defaultRingSize
	}
	return &Ring[T]{size: size, order: order, stamp: stamp}
}

// NewSpanRing builds a ring of the most recent size completed spans,
// ordered by start time (size <= 0 uses defaultRingSize).
func NewSpanRing(size int) *Ring[Span] {
	return newRing(size, func(a, b Span) int { return a.Start.Compare(b.Start) }, nil)
}

// NewRecorder builds the flight recorder: a ring of the most recent size
// events, cheap enough to record every admission verdict on the hot path
// and bounded enough to leave running forever. Record stamps each event's
// Seq, and its Wall unless the caller set it -- an admission group reads the
// clock once for all its events -- and snapshots are in Seq order (size <= 0
// uses defaultRingSize). It is the node's black box: the EVENTS wire op, the
// status endpoint, SIGQUIT and failing chaos tests all dump it.
func NewRecorder(size int) *Ring[Event] {
	return newRing(size, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) }, func(e *Event, i uint64) {
		e.Seq = i
		if e.Wall.IsZero() {
			e.Wall = time.Now()
		}
	})
}

// NewSampleRing builds a ring of the most recent size density samples,
// ordered by sample time (size <= 0 uses defaultRingSize).
func NewSampleRing(size int) *Ring[DensitySample] {
	return newRing(size, func(a, b DensitySample) int { return cmp.Compare(a.At, b.At) }, nil)
}

// Record copies one record into the ring, over the oldest once it is full.
func (r *Ring[T]) Record(v T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.next
	r.next++
	at := int(i % uint64(r.size))
	if at == len(r.slots) {
		if at == cap(r.slots) {
			// Double, but never past the ring's size.
			grown := make([]T, at, min(max(2*at, 16), r.size))
			copy(grown, r.slots)
			r.slots = grown
		}
		r.slots = r.slots[:at+1]
	}
	r.slots[at] = v
	if r.stamp != nil {
		r.stamp(&r.slots[at], i)
	}
}

// Len reports how many records were ever recorded (not how many the ring
// still holds).
func (r *Ring[T]) Len() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Snapshot returns the records currently held, oldest first.
func (r *Ring[T]) Snapshot() []T { return r.Select(nil) }

// Select returns the held records keep accepts, oldest first (every held
// record when keep is nil). keep runs under the ring's lock; the sort does
// not.
func (r *Ring[T]) Select(keep func(*T) bool) []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var out []T
	if keep == nil {
		out = append(make([]T, 0, len(r.slots)), r.slots...)
	} else {
		for i := range r.slots {
			if keep(&r.slots[i]) {
				out = append(out, r.slots[i])
			}
		}
	}
	r.mu.Unlock()
	slices.SortFunc(out, r.order)
	return out
}

// Tail returns the newest n records the ring holds (every held record when
// it holds fewer), oldest first in the order they were recorded: the
// flight recorder's Seq order. It copies those n alone, where Snapshot
// copies and sorts the whole ring.
func (r *Ring[T]) Tail(n int) []T {
	if r == nil || n <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n = min(n, len(r.slots))
	out := make([]T, n)
	for i := range out {
		out[i] = r.slots[(r.next-uint64(n-i))%uint64(r.size)]
	}
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
