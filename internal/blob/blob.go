// Package blob stores object payloads for live Besteffs nodes. The storage
// unit (package store) tracks metadata and makes reclamation decisions;
// a blob.Store holds the bytes. Two implementations are provided: an
// in-memory map for tests and simulations, and an append-only segment log
// (FileStore) for the besteffsd daemon, where payloads must survive living
// on a real desktop disk -- the paper's deployment target is "unused desktop
// storage as well as dedicated storage bricks".
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
// with NewMemStore. It keeps one map: an ID-keyed map under delete and insert
// churn grows well past its live size before it levels off, and a second
// map of the same keys would double that.
//
// An admission that preempts victims deletes their payloads and then puts
// the arrivals'. The deleted entries are kept until the next put, which
// copies each arriving payload into one of them instead of allocating: the
// memory the victims held is what the arrivals get. A put lets go of every
// deleted entry it did not reuse. Reuse is safe because no caller ever holds
// a stored buffer: Get returns a copy.
type MemStore struct {
	mu      sync.Mutex
	entries map[object.ID]*memEntry
	// freed holds the entries deleted since the last put, payload buffers
	// of freedBytes in all, at most maxIdleBuffer.
	freed      []*memEntry
	freedBytes int
}

// memEntry is one stored payload and its CRC-32.
type memEntry struct {
	sum     uint32
	payload []byte
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{entries: make(map[object.ID]*memEntry)}
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
// entry whose buffer fits it -- room for the payload, and no more than
// twice its length -- or else in a new one.
func (s *MemStore) putLocked(id object.ID, payload []byte) {
	var e *memEntry
	for i := len(s.freed) - 1; i >= 0; i-- {
		if c := cap(s.freed[i].payload); c >= len(payload) && c <= 2*len(payload) {
			e = s.freed[i]
			last := len(s.freed) - 1
			s.freed[i], s.freed[last] = s.freed[last], nil
			s.freed = s.freed[:last]
			s.freedBytes -= c
			break
		}
	}
	if e == nil {
		e = &memEntry{payload: make([]byte, len(payload))}
	}
	e.payload = e.payload[:len(payload)]
	copy(e.payload, payload)
	e.sum = crc32.ChecksumIEEE(e.payload)
	s.entries[id] = e
}

// dropFreedLocked lets go of the deleted entries no put reused.
func (s *MemStore) dropFreedLocked() {
	clear(s.freed)
	s.freed, s.freedBytes = s.freed[:0], 0
}

// verifiedLocked returns the intact entry for the ID, or ErrNotFound or
// ErrCorrupt.
func (s *MemStore) verifiedLocked(id object.ID) (*memEntry, error) {
	e, ok := s.entries[id]
	if !ok {
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
	e, ok := s.entries[id]
	if !ok {
		return nil
	}
	delete(s.entries, id)
	if c := cap(e.payload); c > 0 && s.freedBytes+c <= maxIdleBuffer {
		s.freed = append(s.freed, e)
		s.freedBytes += c
	}
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
	e, ok := s.entries[id]
	if !ok {
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
	e, ok := s.entries[id]
	if !ok || len(e.payload) == 0 {
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
