package store

import (
	"errors"
	"fmt"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// Rejuvenation implements the paper's escape hatch from monotonicity.
// Lifetime functions must be monotonically decreasing (Section 3): a
// creator cannot pre-program a future importance increase, because the
// increase would be conditioned on the object surviving until then. What
// the paper allows instead is "an active intervention by the user to
// increase an existing importance in the future" -- the video-upload
// example where a backup application lowers an object's importance once a
// copy exists, and the Section 6 trigger scenarios (sensor data demoted
// after processing, importance raised on an acknowledgment).
//
// Rejuvenate replaces a resident object's importance function now, re-aging
// it from the rejuvenation instant. The object's version increments
// (Besteffs updates are versioned), its ID and payload are unchanged.

// ErrRejuvenateExpired reports a rejuvenation that would not change
// anything because the replacement function is already expired.
var ErrRejuvenateExpired = errors.New("store: replacement importance already expired")

// Rejuvenate replaces the importance annotation of a resident object with
// a fresh function whose age restarts at now. It returns the updated
// object. Lowering importance is allowed (the backup-completed case) as
// well as raising it (the renewed-interest case); what cannot happen is an
// automatic, pre-programmed increase.
func (u *Unit) Rejuvenate(id object.ID, imp importance.Function, now time.Duration) (*object.Object, error) {
	if imp == nil {
		return nil, object.ErrNilImportance
	}
	if importance.Expired(imp, 0) {
		return nil, fmt.Errorf("%w: %v", ErrRejuvenateExpired, imp)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	slot, ok := u.slotLocked(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	old := u.order[slot]
	// Objects are write-once with versioned updates: build the successor
	// version in place of the old one, and in its new function's run.
	// Arrival moves to now so the new function ages from the rejuvenation
	// instant.
	fresh := *old
	fresh.Importance = imp
	fresh.Arrival = now
	fresh.Version = old.Version + 1
	u.unlinkRunLocked(slot)
	u.order[slot] = &fresh
	u.linkRunLocked(slot, u.runKeyLocked(&fresh))
	return &fresh, nil
}
