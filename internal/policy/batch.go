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

// Scratch is the working memory of group planning: the decisions, the
// ranked candidates and the victims. A caller that plans group after group
// under one lock -- a storage unit does -- keeps one and plans in it, so
// planning allocates only while the scratch grows. The decisions a call
// returns, and their victims, live in the scratch: they are valid until the
// next call with it, or Release.
type Scratch struct {
	decisions []Decision
	ranked    []candidate
	victims   []*object.Object
}

// reset empties the scratch for a group of n and returns its n zero
// decisions.
func (s *Scratch) reset(n int) []Decision {
	s.Release()
	if cap(s.decisions) < n {
		s.decisions = make([]Decision, n)
	}
	s.decisions = s.decisions[:n]
	return s.decisions
}

// Release drops the scratch's hold on the last group's objects, keeping its
// capacity.
func (s *Scratch) Release() {
	clear(s.decisions[:cap(s.decisions)])
	clear(s.ranked[:cap(s.ranked)])
	clear(s.victims[:cap(s.victims)])
	s.decisions, s.ranked, s.victims = s.decisions[:0], s.ranked[:0], s.victims[:0]
}

// PlanGroup plans the admission of a group of objects against one view
// snapshot: in one pass over the residents under TemporalImportance, and
// under any other policy member by member against an incrementally updated
// copy of the view. Either way the group semantics are identical: members
// never preempt each other and no resident is evicted twice. Nil entries in
// incoming yield the zero Decision.
func PlanGroup(p Policy, view View, incoming []*object.Object, now time.Duration) []Decision {
	var s Scratch
	return s.PlanGroup(p, view, incoming, now)
}

// PlanGroup is the package's PlanGroup planning in s.
func (s *Scratch) PlanGroup(p Policy, view View, incoming []*object.Object, now time.Duration) []Decision {
	// A concrete call, not an interface's: s does not escape.
	if tp, ok := p.(TemporalImportance); ok {
		return tp.planBatch(s, view, incoming, now)
	}
	out := s.reset(len(incoming))
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

// PlanBatch plans a group in a scratch of its own: it is PlanGroup for
// this policy.
func (p TemporalImportance) PlanBatch(view View, incoming []*object.Object, now time.Duration) []Decision {
	var s Scratch
	return p.planBatch(&s, view, incoming, now)
}

// planBatch plans a group in s with a single selection shared by every
// member. The victims of earlier members are always a rank-prefix of the
// residents, so a cursor stands in for them, and no member looks past the
// shortest prefix covering the group's total shortfall (all members' sizes
// less the free space; none for a batch that fits): a batch of N puts costs one
// selection plus, per member, a walk over what is left of it. Every
// member's victims are appended to the scratch's one slice.
func (TemporalImportance) planBatch(s *Scratch, view View, incoming []*object.Object, now time.Duration) []Decision {
	out := s.reset(len(incoming))
	free := view.Free
	shortfall := -free
	for _, o := range incoming {
		if o != nil && o.Size <= view.Capacity {
			shortfall += o.Size
		}
	}
	s.ranked = cheapest(s.ranked, view, shortfall, now)
	consumed := 0 // s.ranked[:consumed] are victims of earlier members
	for k, o := range incoming {
		if o == nil {
			continue
		}
		if o.Size > view.Capacity {
			out[k] = Decision{Reason: ReasonTooLarge}
			continue
		}
		start := len(s.victims)
		d, next := walk(Decision{Victims: s.victims}, s.ranked[consumed:], nil, o.Size-free, o.ImportanceAt(now), ReasonFull)
		if d.Admit {
			consumed += next
			free += d.FreedBytes - o.Size
			s.victims, d.Victims = d.Victims, d.Victims[start:len(d.Victims):len(d.Victims)]
			if len(d.Victims) == 0 {
				d.Victims = nil
			}
		}
		out[k] = d
	}
	return out
}
