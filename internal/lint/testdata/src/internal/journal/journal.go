// Package journal is an uncheckederr fixture: WAL carries the durability
// verbs (Append, Sync, Barrier, Close) whose dropped errors the analyzer
// must flag at call sites, and WriteCheckpoint is the package-level
// checkpoint writer.
package journal

import "errors"

// ErrClosed reports a write after Close.
var ErrClosed = errors.New("journal: closed")

// WAL mimics the journalled write path.
type WAL struct {
	closed bool
	recs   []string
}

// Append journals one record.
func (w *WAL) Append(rec string) error {
	if w.closed {
		return ErrClosed
	}
	w.recs = append(w.recs, rec)
	return nil
}

// Sync flushes to stable storage.
func (w *WAL) Sync() error {
	if w.closed {
		return ErrClosed
	}
	return nil
}

// Barrier orders all prior appends before any later ones.
func (w *WAL) Barrier() error {
	if w.closed {
		return ErrClosed
	}
	return nil
}

// Close performs the final flush and sync.
func (w *WAL) Close() error {
	if w.closed {
		return ErrClosed
	}
	w.closed = true
	return nil
}

// WriteCheckpoint snapshots live state into dir.
func WriteCheckpoint(dir string) error {
	if dir == "" {
		return errors.New("journal: empty checkpoint dir")
	}
	return nil
}
