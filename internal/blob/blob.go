// Package blob stores object payloads for live Besteffs nodes. The storage
// unit (package store) tracks metadata and makes reclamation decisions;
// a blob.Store holds the bytes. Two implementations are provided: an
// in-memory store (MemStore), which serves every node started without a
// data directory as well as tests and simulations, and an append-only
// segment log (FileStore) for a besteffsd started with one, where payloads
// must survive living on a real desktop disk -- the paper's deployment
// target is "unused desktop storage as well as dedicated storage bricks".
// MemStore keeps its payload bytes outside the garbage-collected heap, in
// an arena of mapped chunks (arena.go) whose slots a delete frees for the
// next put and whose emptied chunks go back to the operating system.
//
// Consistent with Besteffs semantics, the file store provides no more
// durability than a single copy on the underlying disk, and it is not the
// authority on which objects exist: the node's journal is, and recovery
// reconciles the two. Both stores record a CRC-32 of each payload at Put
// and verify it at Get, so a bit-flipped payload surfaces as ErrCorrupt
// instead of being served silently.
package blob

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"sync"

	"besteffs/internal/object"
)

// ErrNotFound reports a missing payload.
var ErrNotFound = errors.New("blob: not found")

// ErrCorrupt reports a payload whose bytes no longer match the CRC-32
// recorded when it was stored -- a bit flip on disk or in memory. Corrupt
// payloads are detected on read and never served silently.
var ErrCorrupt = errors.New("blob: corrupt payload")

// Store holds object payloads keyed by object ID. Implementations must be
// safe for concurrent use.
type Store interface {
	// Put stores a payload, replacing any previous payload for the ID.
	Put(id object.ID, payload []byte) error
	// PutBatch stores payloads[i] under ids[i] for every i, as Put would in
	// slice order, but commits the group at once: when it returns nil
	// every payload is stored, and a store that persists makes the whole
	// group durable with one write and one sync. On error any subset of
	// the group may have been stored.
	PutBatch(ids []object.ID, payloads [][]byte) error
	// Get returns the payload for the ID, or ErrNotFound.
	Get(id object.ID) ([]byte, error)
	// Delete removes the payload; deleting an absent ID is not an error.
	Delete(id object.ID) error
	// Verify checks a payload's integrity without handing the bytes to the
	// caller: nil for an intact payload, ErrNotFound for a missing one and
	// ErrCorrupt when the stored bytes no longer match their recorded
	// CRC-32. The scrubber and fsck sweep a store with it.
	Verify(id object.ID) error
	// Sum reports a payload's recorded CRC-32 without reading the bytes
	// out, or ErrNotFound. Anti-entropy index exchange summarizes every
	// resident object with it.
	Sum(id object.ID) (uint32, error)
}

// MemStore is an in-memory Store. The zero value is not usable; construct
// with NewMemStore. It holds its entries by value in one dense slice, found
// through an object.Index: a delete moves the last entry into the gap, so
// under any churn the slice holds the live entries and the index at most
// eight slots of eight bytes each per entry, none of which the garbage
// collector scans.
//
// The payload bytes live outside the Go heap, in an arena of mapped chunks
// (arena.go): a delete gives its slot back at once, and the arena maps at
// most one chunk more than the live payloads need, so the store's memory
// follows its live payloads instead of the collector's heap goal. An
// admission that preempts victims deletes their payloads and then puts the
// arrivals', which take the slots the victims left. No slice into the arena
// ever leaves the store's lock: Get returns a copy. A finalizer unmaps what
// is left once the store is unreachable; every method holds the lock until
// it is done with the arena, and its deferred unlock keeps the store
// reachable until then.
type MemStore struct {
	mu      sync.Mutex
	index   object.Index // ID -> its entry's position in entries
	entries []memEntry
	arena   arena
}

// memEntry is one stored payload: its ID, its CRC-32, its length, and the
// arena slot that holds it.
type memEntry struct {
	id    object.ID
	sum   uint32
	n     uint32
	class uint32
	slot  uint32
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	s := &MemStore{arena: newArena()}
	runtime.SetFinalizer(s, func(s *MemStore) { s.arena.release() })
	return s
}

// Put implements Store.
func (s *MemStore) Put(id object.ID, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putLocked(id, payload)
}

// PutBatch implements Store under one lock acquisition.
func (s *MemStore) PutBatch(ids []object.ID, payloads [][]byte) error {
	if len(ids) != len(payloads) {
		return fmt.Errorf("blob: put batch of %d IDs and %d payloads", len(ids), len(payloads))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, id := range ids {
		if err := s.putLocked(id, payloads[i]); err != nil {
			return err
		}
	}
	return nil
}

// putLocked stores a copy of payload and its CRC-32 under id: in place when
// id holds a payload of the same size class, else in another slot, after
// which the old one is freed.
func (s *MemStore) putLocked(id object.ID, payload []byte) error {
	if uint64(len(payload)) > math.MaxUint32 {
		return fmt.Errorf("blob: a %d-byte payload for %s", len(payload), id)
	}
	n, c := uint32(len(payload)), classOf(len(payload))
	i, ok := s.index.Find(id, s.idAtLocked)
	if ok && s.entries[i].class == c && c != largeClass {
		e := &s.entries[i]
		e.n = n
		e.sum = copySum(s.arena.bytes(c, e.slot, n), payload)
		return nil
	}
	if !ok {
		i = len(s.entries)
	}
	p, err := s.arena.alloc(c, len(payload), i)
	if err != nil {
		return err
	}
	sum := copySum(s.arena.bytes(c, p, n), payload)
	if !ok {
		s.index.Add(id, i)
		s.entries = append(s.entries, memEntry{id: id, sum: sum, n: n, class: c, slot: p})
		return nil
	}
	e := &s.entries[i]
	old, oldSlot := e.class, e.slot
	e.sum, e.n, e.class, e.slot = sum, n, c, p
	s.freeLocked(old, oldSlot)
	return nil
}

// copySum copies payload into dst and returns the CRC-32 of what dst holds.
func copySum(dst, payload []byte) uint32 {
	copy(dst, payload)
	return crc32.ChecksumIEEE(dst)
}

// freeLocked gives slot p of class c back to the arena, compacting the
// class when its holes add up to more than a chunk.
func (s *MemStore) freeLocked(c, p uint32) {
	if s.arena.free(c, p) {
		s.arena.compact(c, s.entries)
	}
}

// payloadLocked returns the bytes of e's payload. The slice must not
// outlive the lock.
func (s *MemStore) payloadLocked(e *memEntry) []byte {
	return s.arena.bytes(e.class, e.slot, e.n)
}

// entryLocked returns the entry stored under id, or nil. The pointer is
// good until the next put or delete.
func (s *MemStore) entryLocked(id object.ID) *memEntry {
	if i, ok := s.index.Find(id, s.idAtLocked); ok {
		return &s.entries[i]
	}
	return nil
}

// idAtLocked returns the ID of the entry at position i.
func (s *MemStore) idAtLocked(i int) object.ID { return s.entries[i].id }

// verifiedLocked returns the intact entry for the ID, or ErrNotFound or
// ErrCorrupt.
func (s *MemStore) verifiedLocked(id object.ID) (*memEntry, error) {
	e := s.entryLocked(id)
	if e == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if crc32.ChecksumIEEE(s.payloadLocked(e)) != e.sum {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, id)
	}
	return e, nil
}

// Get implements Store. A payload whose bytes no longer match their stored
// CRC-32 yields ErrCorrupt.
func (s *MemStore) Get(id object.ID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.verifiedLocked(id)
	if err != nil {
		return nil, err
	}
	cp := make([]byte, e.n)
	copy(cp, s.payloadLocked(e))
	return cp, nil
}

// Delete implements Store.
func (s *MemStore) Delete(id object.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index.Take(id, s.idAtLocked)
	if !ok {
		return nil
	}
	s.freeLocked(s.entries[i].class, s.entries[i].slot)
	// The last entry moves into the gap.
	last := len(s.entries) - 1
	if i != last {
		e := &s.entries[i]
		*e = s.entries[last]
		s.index.Move(e.id, last, i)
		s.arena.setOwner(e.class, e.slot, i)
	}
	s.entries[last] = memEntry{}
	s.entries = s.entries[:last]
	return nil
}

// Verify implements Store without copying the payload out.
func (s *MemStore) Verify(id object.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.verifiedLocked(id)
	return err
}

// Sum implements Store.
func (s *MemStore) Sum(id object.ID) (uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entryLocked(id)
	if e == nil {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return e.sum, nil
}

// Corrupt flips one payload byte and leaves the recorded CRC alone,
// simulating in-memory bit rot for scrubber tests. It returns ErrNotFound
// for an absent or empty payload.
func (s *MemStore) Corrupt(id object.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entryLocked(id)
	if e == nil || e.n == 0 {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	s.payloadLocked(e)[0] ^= 0xff
	return nil
}

// Len returns the number of stored payloads.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// MappedBytes returns the bytes the store holds mapped outside the Go heap
// for its payloads: every chunk of the arena, whole. A node's memory is its
// heap plus these.
func (s *MemStore) MappedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.arena.mapped
}
