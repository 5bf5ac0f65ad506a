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
	"slices"
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
	for k, o := range incoming {
		if o == nil {
			continue
		}
		d := p.Plan(view, o, now)
		out[k] = d
		if !d.Admit {
			continue
		}
		view.Free += d.FreedBytes - o.Size
		if len(d.Victims) > 0 && k < len(incoming)-1 {
			gone := set(d.Victims)
			view = view.filter(func(r *object.Object) bool { return !gone[r] })
		}
	}
	return out
}

// filter returns a copy of the view holding only the residents keep accepts,
// each run still in its order: a view's slices are borrowed and must not
// change. Kept members go onto one growing slice and each kept run is cut out
// of it, so a view of short runs costs a few allocations, not one a run.
func (v View) filter(keep func(*object.Object) bool) View {
	out := View{Capacity: v.Capacity, Free: v.Free}
	if len(v.Residents) > 0 {
		out.Residents = slices.DeleteFunc(slices.Clone(v.Residents), func(o *object.Object) bool { return !keep(o) })
	}
	var kept []*object.Object
	for _, run := range v.Runs {
		start := len(kept)
		for _, o := range run {
			if keep(o) {
				kept = append(kept, o)
			}
		}
		if len(kept) > start {
			out.Runs = append(out.Runs, kept[start:len(kept):len(kept)])
		}
	}
	return out
}

// set returns the objects as a set.
func set(objs []*object.Object) map[*object.Object]bool {
	s := make(map[*object.Object]bool, len(objs))
	for _, o := range objs {
		s[o] = true
	}
	return s
}

// PlanBatch implements BatchPlanner with a single selection shared by every
// member. The victims of earlier members are always a rank-prefix of the
// residents, so a cursor stands in for them, and no member looks past the
// shortest prefix covering the group's total shortfall (all members' sizes
// less the free space; none for a batch that fits): a batch of N puts costs one
// selection plus, per member, a walk over what is left of it.
func (TemporalImportance) PlanBatch(view View, incoming []*object.Object, now time.Duration) []Decision {
	out := make([]Decision, len(incoming))
	free := view.Free
	shortfall := -free
	for _, o := range incoming {
		if o != nil && o.Size <= view.Capacity {
			shortfall += o.Size
		}
	}
	ranked := cheapest(nil, view, shortfall, now)
	consumed := 0 // ranked[:consumed] are victims of earlier members
	for k, o := range incoming {
		if o == nil {
			continue
		}
		if o.Size > view.Capacity {
			out[k] = Decision{Reason: ReasonTooLarge}
			continue
		}
		d, next := walk(Decision{}, ranked[consumed:], nil, o.Size-free, o.ImportanceAt(now), ReasonFull)
		out[k] = d
		if d.Admit {
			consumed += next
			free += d.FreedBytes - o.Size
		}
	}
	return out
}
