// Package blob is an uncheckederr fixture: Put, PutBatch, Delete and Corrupt
// are the payload mutations whose errors must never be dropped; Get is
// read-only and out of scope.
package blob

import "errors"

// ErrNotFound reports a missing payload.
var ErrNotFound = errors.New("blob: not found")

// Store mimics the payload store.
type Store struct {
	payloads map[string][]byte
}

// Put stores a payload.
func (s *Store) Put(id string, b []byte) error {
	if s.payloads == nil {
		s.payloads = make(map[string][]byte)
	}
	s.payloads[id] = b
	return nil
}

// PutBatch stores a group of payloads.
func (s *Store) PutBatch(ids []string, bs [][]byte) error {
	for i, id := range ids {
		if err := s.Put(id, bs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes a payload.
func (s *Store) Delete(id string) error {
	delete(s.payloads, id)
	return nil
}

// Corrupt flips a payload byte for scrubber tests.
func (s *Store) Corrupt(id string) error {
	b, ok := s.payloads[id]
	if !ok || len(b) == 0 {
		return ErrNotFound
	}
	b[0] ^= 0xff
	return nil
}

// Get returns a payload; its error is not a durability error.
func (s *Store) Get(id string) ([]byte, error) {
	b, ok := s.payloads[id]
	if !ok {
		return nil, ErrNotFound
	}
	return b, nil
}
