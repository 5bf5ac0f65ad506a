package policy

import (
	"time"

	"besteffs/internal/object"
)

// FairShare layers per-owner capacity quotas over the temporal-importance
// policy. The paper identifies the need without designing the mechanism:
// "on a multi-user system, the system should restrict the importance
// functions for fairness, lest every user request infinite lifetime,
// essentially reverting to the traditional persistent until deleted model"
// (Section 1; multi-application sharing is left to follow-up work in
// Section 4.1). FairShare is that restriction in its simplest enforceable
// form: no owner may hold more than MaxFraction of the unit's capacity, so
// a user who annotates everything at importance one fills only their own
// share and cannot freeze out other users.
//
// Admission of an object from owner A works in two stages:
//
//  1. Quota: if A's resident bytes plus the object exceed A's share, the
//     overflow must be reclaimed from A's *own* objects, under the usual
//     preemption rules (strictly lower current importance, or zero). If
//     A's own cheaper objects cannot cover it, the unit is full for the
//     object regardless of other users' data.
//  2. Space: any remaining shortfall follows the plain temporal-importance
//     rules over every resident.
//
// Owners are compared as the strings object.Owner returns, never by the
// pointers that hold them; objects with an empty owner share one anonymous
// quota.
type FairShare struct {
	// MaxFraction is the largest share of capacity one owner may hold,
	// in (0, 1]. A value of 1 disables the quota and degenerates to
	// TemporalImportance.
	MaxFraction float64
}

var _ Policy = FairShare{}

// ReasonQuota marks an object rejected because its owner's share is
// exhausted by objects the owner cannot preempt.
const ReasonQuota Reason = 3

// Name returns "fair-share".
func (FairShare) Name() string { return "fair-share" }

// Plan implements Policy.
func (p FairShare) Plan(view View, incoming *object.Object, now time.Duration) Decision {
	if p.MaxFraction <= 0 || p.MaxFraction > 1 {
		// An invalid share cannot admit anything; surface it loudly via
		// rejection rather than panicking in a planner.
		return Decision{Reason: ReasonQuota}
	}
	quota := int64(p.MaxFraction * float64(view.Capacity))
	if incoming.Size > quota {
		return Decision{Reason: ReasonTooLarge}
	}

	var ownerUsed int64
	own := view.filter(func(o *object.Object) bool {
		if o.Owner() != incoming.Owner() {
			return false
		}
		ownerUsed += o.Size
		return true
	})

	arriving := incoming.ImportanceAt(now)
	var buf [prefixOnStack]candidate
	// Stage 1: reclaim the quota overflow from the owner's own objects.
	overQuota := ownerUsed + incoming.Size - quota
	d, _ := walk(Decision{}, cheapest(buf[:0], own, overQuota, now), nil, overQuota, arriving, ReasonQuota)
	if !d.Admit {
		return d
	}
	// Stage 2: free the remaining bytes under the plain temporal rules. The
	// walk skips the stage-1 victims, so its prefix must cover their bytes too.
	if need := incoming.Size - view.Free - d.FreedBytes; need > 0 {
		d, _ = walk(d, cheapest(buf[:0], view, need+d.FreedBytes, now), set(d.Victims), need, arriving, ReasonFull)
	}
	return d
}
