package store

import (
	"fmt"

	"besteffs/internal/object"
)

// Checkpoint support. A unit's durable state is exactly its resident set:
// each object's (size, arrival, importance function) tuple is everything
// the paper's reclamation decisions consume, so serializing the residents
// -- importance functions included -- and loading them into a fresh unit
// reproduces every future admission, eviction and density reading. The
// byte-level checkpoint format lives in internal/journal (it reuses the
// journal's record codec). The snapshot out is Residents: objects are
// immutable once resident (rejuvenation and update replace the pointer), so
// its values stay valid while the unit keeps mutating. This file provides
// the way back in, a validated bulk load.

// LoadSnapshot bulk-restores a checkpoint's objects into an empty unit,
// bypassing the admission policy -- the admissions already happened in a
// previous life and the snapshot guarantees they fit. It fails if the unit
// already holds residents (a snapshot is a base image, not a merge) or if
// the snapshot exceeds capacity.
func (u *Unit) LoadSnapshot(objs []*object.Object) error {
	if n := u.Len(); n != 0 {
		return fmt.Errorf("store: LoadSnapshot into a unit with %d residents", n)
	}
	for _, o := range objs {
		if err := u.Restore(o); err != nil {
			return fmt.Errorf("store: load snapshot: %w", err)
		}
	}
	return nil
}
