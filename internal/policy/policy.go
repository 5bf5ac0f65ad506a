// Package policy implements the admission and preemption policies evaluated
// in the paper: the temporal-importance policy of Section 5.3, the
// Palimpsest-like FIFO baseline, and a traditional never-reclaim policy.
//
// A policy is a pure planner: given a read-only view of a storage unit and
// an incoming object, it decides whether the object is admissible and which
// residents must be evicted to make room. The storage unit (package store)
// executes the plan; the same planner also serves non-mutating probes, which
// is how distributed placement asks a unit "how important is the most
// important object you would preempt for this?" without committing.
package policy

import (
	"fmt"
	"time"

	"besteffs/internal/object"
)

// View is the read-only state a policy plans against. The Residents slice
// is borrowed from the caller for the duration of Plan: policies must not
// mutate it, reorder it, or retain it past the call. The planners here only
// read it, once, front to back (see prefix). This contract is what lets
// stores hand their live resident slice to Plan without an O(residents)
// defensive copy on every put.
type View struct {
	// Capacity is the unit's total size in bytes.
	Capacity int64
	// Free is the currently unallocated space in bytes.
	Free int64
	// Residents are the currently stored objects, in no particular order.
	Residents []*object.Object
}

// Reason explains a rejection.
type Reason int

// Rejection reasons.
const (
	// ReasonNone marks an admitted object.
	ReasonNone Reason = iota
	// ReasonTooLarge marks an object bigger than the unit's capacity.
	ReasonTooLarge
	// ReasonFull marks an object for which the unit is full: freeing
	// enough space would require preempting an object of equal or higher
	// current importance.
	ReasonFull
)

// String returns a short reason label.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonTooLarge:
		return "too-large"
	case ReasonFull:
		return "full"
	case ReasonQuota:
		return "quota"
	default:
		return "unknown"
	}
}

// Decision is a reclamation plan for one incoming object.
type Decision struct {
	// Admit reports whether the object can be stored.
	Admit bool
	// Victims are the residents to evict, in eviction order. Empty when
	// the object fits in free space or is rejected.
	Victims []*object.Object
	// HighestPreempted is the current importance of the most important
	// victim the plan preempts (zero if no victims). For a rejection it
	// is the importance of the object that blocked admission: the
	// importance boundary at which this unit is full. Distributed
	// placement minimizes this value across candidate units.
	HighestPreempted float64
	// FreedBytes is the total size of the victims.
	FreedBytes int64
	// Reason explains a rejection; ReasonNone for admitted objects.
	Reason Reason
}

// Policy plans admissions for a storage unit. Implementations must be
// stateless and safe for concurrent use; Plan must not retain or mutate the
// objects in the view.
type Policy interface {
	// Name returns a short identifier used in reports.
	Name() string
	// Plan decides admission of incoming at virtual time now.
	Plan(view View, incoming *object.Object, now time.Duration) Decision
}

// Compile-time interface checks.
var (
	_ Policy = TemporalImportance{}
	_ Policy = FIFO{}
	_ Policy = Traditional{}
)

// TemporalImportance is the paper's reclamation policy. Residents are
// considered for preemption in increasing order of current importance,
// breaking ties by smaller remaining lifetime (Section 5.3). An incoming
// object with current importance i may preempt residents of strictly lower
// current importance; residents at importance zero (expired, Dirac, or
// freely replaceable) may be preempted by any object. If freeing enough
// space would require evicting a resident at importance >= i (and > 0), the
// unit is full for this object and nothing is evicted.
//
// Consequences match the paper's Section 3 rules: importance-one residents
// are never preemptible (no incoming importance exceeds one), and
// importance-zero residents are freely replaceable.
type TemporalImportance struct{}

// Name returns "temporal-importance".
func (TemporalImportance) Name() string { return "temporal-importance" }

// Plan implements Policy.
func (TemporalImportance) Plan(view View, incoming *object.Object, now time.Duration) Decision {
	if incoming.Size > view.Capacity {
		return Decision{Reason: ReasonTooLarge}
	}
	need := incoming.Size - view.Free
	var buf [prefixOnStack]candidate
	d, _ := walk(Decision{}, cheapest(buf[:0], view.Residents, need, now), nil, need, incoming.ImportanceAt(now), ReasonFull)
	return d
}

// walk is the Section 5.3 preemption rule, the one copy every importance
// planner calls. It takes ranked candidates, cheapest first and skipping those
// in taken (victims the caller already holds), until need bytes are covered,
// and stops at the first whose current importance is above zero and at least
// arriving: the unit is full for the arrival at that boundary. It returns d
// with the victims added and Admit set, and the number of candidates passed.
// If need stays uncovered it returns instead a rejection for reason, at the
// boundary that stopped it or, when the candidates ran out, at the highest
// importance preempted.
func walk(d Decision, ranked []candidate, taken map[*object.Object]bool, need int64, arriving float64, reason Reason) (Decision, int) {
	next := 0
	for ; next < len(ranked) && need > 0; next++ {
		c := ranked[next]
		if taken[c.obj] {
			continue
		}
		if c.imp > 0 && c.imp >= arriving {
			return Decision{Reason: reason, HighestPreempted: c.imp}, next
		}
		d.Victims = append(d.Victims, c.obj)
		d.FreedBytes += c.obj.Size
		d.HighestPreempted = max(d.HighestPreempted, c.imp)
		need -= c.obj.Size
	}
	if need > 0 {
		return Decision{Reason: reason, HighestPreempted: d.HighestPreempted}, next
	}
	d.Admit = true
	return d, next
}

// candidate caches the rank key of one resident.
type candidate struct {
	obj       *object.Object
	imp       float64
	remaining time.Duration
	forever   bool
}

// before reports whether a ranks below b and so is preempted first: by lower
// current importance, then expiring before never-expiring, remaining lifetime, ID.
func (a candidate) before(b candidate) bool {
	if a.imp != b.imp {
		return a.imp < b.imp
	}
	if a.forever != b.forever {
		return !a.forever
	}
	if a.remaining != b.remaining {
		return a.remaining < b.remaining
	}
	return a.obj.ID < b.obj.ID
}

// prefixOnStack candidates fit in a planner's own frame; more spill to the heap.
const prefixOnStack = 32

// prefix selects the cheapest victims without ordering the residents that
// stay. Of the candidates offered to it, it keeps the shortest rank-prefix
// whose sizes cover want bytes (every candidate, if all together do not) in a
// max-heap, so one comparison against kept[0] dismisses a resident ranking
// above the prefix. The Section 5.3 walk never looks further: it stops once
// the bytes are covered, or earlier at a resident it may not preempt.
type prefix struct {
	want, sum int64       // bytes asked for; bytes of the kept candidates
	kept      []candidate // max-heap by rank
}

// offer considers one more candidate and, like append, returns the result.
func (p prefix) offer(c candidate) prefix {
	if p.sum >= p.want && !c.before(p.kept[0]) {
		return p
	}
	p.kept = append(p.kept, c)
	p.sum += c.obj.Size
	h := p.kept
	for i := len(h) - 1; i > 0 && h[(i-1)/2].before(h[i]); i = (i - 1) / 2 {
		h[(i-1)/2], h[i] = h[i], h[(i-1)/2]
	}
	// Drop the most expensive candidates the prefix no longer needs.
	for p.sum-h[0].obj.Size >= p.want {
		p.sum -= h[0].obj.Size
		h = popMax(h)
	}
	p.kept = h
	return p
}

// popMax moves the max of heap h behind its end and returns the shrunk heap.
func popMax(h []candidate) []candidate {
	last := len(h) - 1
	h[0], h[last] = h[last], h[0]
	h = h[:last]
	for i := 0; ; {
		big := i
		for child := 2*i + 1; child <= 2*i+2 && child < last; child++ {
			if h[big].before(h[child]) {
				big = child
			}
		}
		if big == i {
			return h
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// ranked ends the selection: it finishes the heapsort in place and returns
// the kept candidates in rank order, cheapest first.
func (p prefix) ranked() []candidate {
	for h := p.kept; len(h) > 1; {
		h = popMax(h)
	}
	return p.kept
}

// cheapest returns, in rank order and built on buf, the shortest rank-prefix
// of residents whose sizes cover want bytes at virtual time now. It reads
// every resident once, and its remaining lifetime only on an importance tie.
func cheapest(buf []candidate, residents []*object.Object, want int64, now time.Duration) []candidate {
	if want <= 0 {
		return buf
	}
	p := prefix{want: want, kept: buf}
	for _, o := range residents {
		c := candidate{obj: o, imp: o.ImportanceAt(now)}
		if p.sum >= want && c.imp > p.kept[0].imp {
			continue
		}
		rem, ok := o.Remaining(now)
		c.remaining, c.forever = rem, !ok
		p = p.offer(c)
	}
	return p.ranked()
}

// FIFO is the Palimpsest-like baseline: the oldest residents are discarded
// first and the store is never full for an object that fits the capacity.
// Objects carry no effective importance ("this requires that all objects
// have an importance of 0"); to reproduce Figure 10's comparison, the plan
// still reports the projected current importance of the most important
// victim as HighestPreempted.
type FIFO struct{}

// Name returns "palimpsest-fifo".
func (FIFO) Name() string { return "palimpsest-fifo" }

// Plan implements Policy.
func (FIFO) Plan(view View, incoming *object.Object, now time.Duration) Decision {
	if incoming.Size > view.Capacity {
		return Decision{Reason: ReasonTooLarge}
	}
	need := incoming.Size - view.Free
	if need <= 0 {
		return Decision{Admit: true}
	}
	// The oldest residents covering need bytes: the rank key with importance
	// held equal and the arrival in the lifetime slot orders by (arrival, ID).
	var buf [prefixOnStack]candidate
	oldest := prefix{want: need, kept: buf[:0]}
	for _, o := range view.Residents {
		oldest = oldest.offer(candidate{obj: o, remaining: o.Arrival})
	}
	d := Decision{Admit: true}
	for _, c := range oldest.ranked() {
		if need <= 0 {
			break
		}
		d.Victims = append(d.Victims, c.obj)
		d.FreedBytes += c.obj.Size
		if imp := c.obj.ImportanceAt(now); imp > d.HighestPreempted {
			d.HighestPreempted = imp
		}
		need -= c.obj.Size
	}
	if need > 0 {
		return Decision{Reason: ReasonFull, HighestPreempted: d.HighestPreempted}
	}
	return d
}

// Traditional is classical persistent storage: nothing is ever reclaimed
// and an object that does not fit in free space is rejected. It calibrates
// the "fully used up in about 40 to 50 days" observation of Section 5.1.
type Traditional struct{}

// Name returns "traditional".
func (Traditional) Name() string { return "traditional" }

// Plan implements Policy.
func (Traditional) Plan(view View, incoming *object.Object, _ time.Duration) Decision {
	if incoming.Size > view.Capacity {
		return Decision{Reason: ReasonTooLarge}
	}
	if incoming.Size <= view.Free {
		return Decision{Admit: true}
	}
	return Decision{Reason: ReasonFull}
}

// ByName maps a policy's command-line name to the policy: temporal, fifo,
// traditional, or fair-share (also fairshare) with share, the -share flag, as
// its MaxFraction.
func ByName(name string, share float64) (Policy, error) {
	switch name {
	case "temporal":
		return TemporalImportance{}, nil
	case "fifo":
		return FIFO{}, nil
	case "traditional":
		return Traditional{}, nil
	case "fair-share", "fairshare":
		if share <= 0 || share > 1 {
			return nil, fmt.Errorf("-share %v outside (0, 1]", share)
		}
		return FairShare{MaxFraction: share}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q (want temporal, fifo, traditional or fair-share)", name)
	}
}
