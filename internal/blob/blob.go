// Package blob stores object payloads for live Besteffs nodes. The storage
// unit (package store) tracks metadata and makes reclamation decisions;
// a blob.Store holds the bytes. Two implementations are provided: an
// in-memory store (MemStore), which serves every node started without a
// data directory as well as tests and simulations, and an append-only
// segment log (FileStore) for a besteffsd started with one, where payloads
// must survive living on a real desktop disk -- the paper's deployment
// target is "unused desktop storage as well as dedicated storage bricks".
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
// An admission that preempts victims deletes their payloads and then puts
// the arrivals'. The deleted payload buffers are kept until the next put,
// which copies each arriving payload into one of them instead of
// allocating: the memory the victims held is what the arrivals get. A put
// lets go of every deleted buffer it did not reuse. Reuse is safe because no
// caller ever holds a stored buffer: Get returns a copy.
type MemStore struct {
	mu      sync.Mutex
	index   object.Index // ID -> its entry's position in entries
	entries []memEntry
	// freed holds the payload buffers of the entries deleted since the last
	// put, freedBytes in all, at most maxIdleBuffer.
	freed      [][]byte
	freedBytes int
}

// memEntry is one stored payload, its ID and its CRC-32.
type memEntry struct {
	id      object.ID
	sum     uint32
	payload []byte
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{}
}

// Put implements Store.
func (s *MemStore) Put(id object.ID, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putLocked(id, payload)
	s.dropFreedLocked()
	return nil
}

// PutBatch implements Store under one lock acquisition.
func (s *MemStore) PutBatch(ids []object.ID, payloads [][]byte) error {
	if len(ids) != len(payloads) {
		return fmt.Errorf("blob: put batch of %d IDs and %d payloads", len(ids), len(payloads))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, id := range ids {
		s.putLocked(id, payloads[i])
	}
	s.dropFreedLocked()
	return nil
}

// putLocked stores a copy of payload and its CRC-32 under id, in a deleted
// entry's buffer that fits it -- room for the payload, and no more than
// twice its length -- or else in a new one.
func (s *MemStore) putLocked(id object.ID, payload []byte) {
	e := s.entryLocked(id)
	if e == nil {
		s.index.Add(id, len(s.entries))
		s.entries = append(s.entries, memEntry{id: id})
		e = &s.entries[len(s.entries)-1]
	}
	e.payload = s.bufferLocked(len(payload))
	copy(e.payload, payload)
	e.sum = crc32.ChecksumIEEE(e.payload)
}

// bufferLocked returns n bytes to copy a payload into: a freed buffer whose
// capacity is at least n and at most 2n, or a new one.
func (s *MemStore) bufferLocked(n int) []byte {
	for i := len(s.freed) - 1; i >= 0; i-- {
		if b := s.freed[i]; cap(b) >= n && cap(b) <= 2*n {
			last := len(s.freed) - 1
			s.freed[i], s.freed[last] = s.freed[last], nil
			s.freed = s.freed[:last]
			s.freedBytes -= cap(b)
			return b[:n]
		}
	}
	return make([]byte, n)
}

// dropFreedLocked lets go of the deleted buffers no put reused.
func (s *MemStore) dropFreedLocked() {
	clear(s.freed)
	s.freed, s.freedBytes = s.freed[:0], 0
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
	if crc32.ChecksumIEEE(e.payload) != e.sum {
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
	cp := make([]byte, len(e.payload))
	copy(cp, e.payload)
	return cp, nil
}

// Delete implements Store.
func (s *MemStore) Delete(id object.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index.Find(id, s.idAtLocked)
	if !ok {
		return nil
	}
	if b := s.entries[i].payload; cap(b) > 0 && s.freedBytes+cap(b) <= maxIdleBuffer {
		s.freed = append(s.freed, b)
		s.freedBytes += cap(b)
	}
	// The last entry moves into the gap.
	s.index.Remove(id, i)
	last := len(s.entries) - 1
	if i != last {
		s.entries[i] = s.entries[last]
		s.index.Move(s.entries[i].id, last, i)
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
	if e == nil || len(e.payload) == 0 {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	e.payload[0] ^= 0xff
	return nil
}

// Len returns the number of stored payloads.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
