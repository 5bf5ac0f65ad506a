package store

import (
	"errors"
	"fmt"
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
	old := u.residentLocked(o.ID)
	if old == nil {
		return policy.Decision{}, fmt.Errorf("%w: %s", ErrNotResident, o.ID)
	}

	// Plan against a view without the old version, its bytes counted as
	// free.
	view := policy.View{
		Capacity:  u.capacity,
		Free:      u.free + old.Size,
		Residents: make([]*object.Object, 0, len(u.order)-1),
	}
	for _, r := range u.order {
		if r.ID != o.ID {
			view.Residents = append(view.Residents, r)
		}
	}
	d := u.pol.Plan(view, o, now)
	if !d.Admit {
		u.counters.Rejected++
		if u.onReject != nil {
			u.onReject(Rejection{Object: o, Time: now, Boundary: d.HighestPreempted, Reason: d.Reason})
		}
		return d, nil
	}

	// Supersede the old version first (reported as preempted by its own
	// successor), then evict the plan's victims, then insert.
	u.evictLocked(old, now, o.ID)
	for _, victim := range d.Victims {
		u.evictLocked(victim, now, o.ID)
	}
	next := *o
	next.Version = old.Version + 1
	u.admitLocked(&next)
	return d, nil
}
