package store

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"besteffs/internal/object"
	"besteffs/internal/policy"
)

// Update implements Besteffs's versioned writes: "Objects are read-only and
// write once with versioned updates" (Section 4.1). An update supersedes
// the resident version under the same ID: the old version's bytes are
// reclaimable by right (the creator owns the object), so admission plans
// against the unit as if the old version were already gone, and on success
// the new version replaces it atomically with the version number bumped.
//
// The superseded version is reported through the eviction hook with
// PreemptedBy set to the object's own ID, so accounting distinguishes
// "lost to competition" from "replaced by its successor".

// ErrNotResident reports an update for an ID that is not stored.
var ErrNotResident = errors.New("store: update target not resident")

// Update replaces the resident version of o.ID with o. The new version's
// admission follows the unit policy with the old version's bytes treated
// as free; rejections leave the old version untouched.
func (u *Unit) Update(o *object.Object, now time.Duration) (policy.Decision, error) {
	if o == nil {
		return policy.Decision{}, errors.New("store: nil object")
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	slot, ok := u.slotLocked(o.ID)
	if !ok {
		return policy.Decision{}, fmt.Errorf("%w: %s", ErrNotResident, o.ID)
	}
	old := u.order[slot]

	// Plan against the unit without the old version and with its bytes free.
	// A reject puts the version back where it was in its run.
	j, key := u.unlinkRunLocked(slot)
	view := u.viewLocked()
	if view.Residents != nil {
		view.Residents = slices.DeleteFunc(slices.Clone(view.Residents), func(r *object.Object) bool { return r == old })
	}
	view.Free += old.Size
	d := u.pol.Plan(view, o, now)
	if !d.Admit {
		u.relinkRunLocked(slot, j, key)
		u.counters.Rejected++
		if u.onReject != nil {
			u.onReject(Rejection{Object: o, Time: now, Boundary: d.HighestPreempted, Reason: d.Reason})
		}
		return d, nil
	}

	// Supersede the old version first (reported as preempted by its own
	// successor), then evict the plan's victims, then insert.
	u.residents.Remove(old.ID, slot)
	u.dropSlotLocked(slot)
	u.recordEvictionLocked(old, now, o.ID)
	for _, victim := range d.Victims {
		u.evictLocked(victim, now, o.ID)
	}
	next := *o
	next.Version = old.Version + 1
	u.admitLocked(&next, u.runKeyLocked(&next))
	return d, nil
}
