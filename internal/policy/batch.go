package policy

// Group admission for the batched wire path. A batch of N puts planned one
// at a time costs N passes over the resident set; PlanGroup plans the whole
// group against ONE view snapshot, selecting victims from it at most once.
//
// Group semantics: every member is planned against the pre-batch resident
// set minus the victims consumed by earlier members, and admitted members
// are NOT added to the candidate set. Batch members therefore never preempt
// each other -- a batch is one burst of arrivals competing for the space
// that existed when it arrived, not a sequence of arrivals competing with
// each other. A member that would only fit by evicting an earlier member is
// rejected ReasonFull, exactly as if the space had never existed.

import (
	"time"

	"besteffs/internal/object"
)

// BatchPlanner is implemented by policies that can plan a whole group of
// admissions against a single view snapshot without another pass over the
// residents per member. Policies without it fall back to sequential planning.
type BatchPlanner interface {
	// PlanBatch returns one Decision per incoming object, observing the
	// group semantics documented on PlanGroup. Nil entries in incoming
	// yield the zero Decision.
	PlanBatch(view View, incoming []*object.Object, now time.Duration) []Decision
}

// Compile-time interface check.
var _ BatchPlanner = TemporalImportance{}

// PlanGroup plans the admission of a group of objects against one view
// snapshot, dispatching to the policy's PlanBatch when implemented and
// otherwise planning members sequentially against an incrementally updated
// copy of the view. Either way the group semantics are identical: members
// never preempt each other and no resident is evicted twice.
func PlanGroup(p Policy, view View, incoming []*object.Object, now time.Duration) []Decision {
	if bp, ok := p.(BatchPlanner); ok {
		return bp.PlanBatch(view, incoming, now)
	}
	out := make([]Decision, len(incoming))
	residents := append([]*object.Object(nil), view.Residents...)
	free := view.Free
	for k, o := range incoming {
		if o == nil {
			continue
		}
		d := p.Plan(View{
			Capacity:  view.Capacity,
			Free:      free,
			Residents: append([]*object.Object(nil), residents...),
		}, o, now)
		out[k] = d
		if !d.Admit {
			continue
		}
		if len(d.Victims) > 0 {
			gone := make(map[*object.Object]bool, len(d.Victims))
			for _, v := range d.Victims {
				gone[v] = true
			}
			kept := residents[:0]
			for _, r := range residents {
				if !gone[r] {
					kept = append(kept, r)
				}
			}
			residents = kept
		}
		free += d.FreedBytes - o.Size
	}
	return out
}

// PlanBatch implements BatchPlanner with a single selection shared by every
// member. The victims of earlier members are always a rank-prefix of the
// residents, so a cursor stands in for them, and no member looks past the
// shortest prefix covering the group's total shortfall (all members' sizes
// less the free space; none for a batch that fits): a batch of N puts costs one
// pass over the residents plus, per member, a walk over what is left of it.
func (TemporalImportance) PlanBatch(view View, incoming []*object.Object, now time.Duration) []Decision {
	out := make([]Decision, len(incoming))
	free := view.Free
	shortfall := -free
	for _, o := range incoming {
		if o != nil && o.Size <= view.Capacity {
			shortfall += o.Size
		}
	}
	ranked := cheapest(nil, view.Residents, shortfall, now)
	consumed := 0 // ranked[:consumed] are victims of earlier members
	for k, o := range incoming {
		if o == nil {
			continue
		}
		if o.Size > view.Capacity {
			out[k] = Decision{Reason: ReasonTooLarge}
			continue
		}
		need := o.Size - free
		if need <= 0 {
			out[k] = Decision{Admit: true}
			free -= o.Size
			continue
		}
		arriving := o.ImportanceAt(now)
		var d Decision
		next := consumed
		for ; next < len(ranked) && need > 0; next++ {
			c := ranked[next]
			if c.imp > 0 && c.imp >= arriving {
				break
			}
			d.Victims = append(d.Victims, c.obj)
			d.FreedBytes += c.obj.Size
			if c.imp > d.HighestPreempted {
				d.HighestPreempted = c.imp
			}
			need -= c.obj.Size
		}
		if need > 0 {
			// Ran out of candidates: full at the observed boundary. This is
			// the normal outcome for a member arriving after earlier members
			// consumed the cheap victims, not just the defensive case.
			out[k] = Decision{Reason: ReasonFull, HighestPreempted: d.HighestPreempted}
			if next < len(ranked) {
				// Or stopped early, by the same boundary rule as Plan: the
				// cheapest remaining victim matches the incoming importance.
				out[k].HighestPreempted = ranked[next].imp
			}
			continue
		}
		consumed = next
		free += d.FreedBytes - o.Size
		d.Admit = true
		out[k] = d
	}
	return out
}
