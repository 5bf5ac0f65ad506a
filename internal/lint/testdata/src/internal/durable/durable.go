// Package durable exercises every dropped-error shape the uncheckederr
// analyzer must catch, next to the checked forms it must leave alone.
package durable

import (
	"os"

	"fixture/internal/blob"
	"fixture/internal/journal"
)

// Flush drops durability errors in all the statement shapes.
func Flush(w *journal.WAL, s *blob.Store) error {
	w.Append("rec")                // want "drops its error"
	defer w.Close()                // want "drops its error"
	_ = w.Sync()                   // want "discards its error into _"
	go w.Barrier()                 // want "drops its error"
	journal.WriteCheckpoint("dir") // want "drops its error"
	s.Put("id", []byte("x"))       // want "drops its error"
	s.PutBatch(nil, nil)           // want "drops its error"
	s.Delete("id")                 // want "drops its error"
	s.Corrupt("id")                // want "drops its error"
	if _, err := s.Get("id"); err != nil {
		return err
	}
	return w.Sync()
}

// Careful checks every error the durability path can raise.
func Careful(w *journal.WAL, s *blob.Store) error {
	if err := w.Append("rec"); err != nil {
		return err
	}
	if err := s.Put("id", []byte("x")); err != nil {
		return err
	}
	if err := journal.WriteCheckpoint("dir"); err != nil {
		return err
	}
	if err := w.Sync(); err != nil {
		return err
	}
	return w.Close()
}

// WriteFile tracks Close on files opened for writing in this file.
func WriteFile(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close() // want "drops its error"
		return err
	}
	return f.Close()
}

// ReadFile shows Close on a read-opened file staying unflagged.
func ReadFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, 16)
	n, err := f.Read(buf)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}
