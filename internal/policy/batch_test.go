package policy

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

func mustObj(t *testing.T, id object.ID, size int64, level float64) *object.Object {
	t.Helper()
	o, err := object.New(id, size, 0, importance.Constant{Level: level})
	if err != nil {
		t.Fatalf("object.New(%s): %v", id, err)
	}
	return o
}

// TestPlanBatchMatchesPlanForSingles pins PlanBatch to Plan for one-element
// batches across the interesting single-put shapes: fits free space, evicts,
// blocked at the boundary, too large.
func TestPlanBatchMatchesPlanForSingles(t *testing.T) {
	pol := TemporalImportance{}
	residents := []*object.Object{
		mustObj(t, "low", 400, 0.2),
		mustObj(t, "mid", 300, 0.5),
		mustObj(t, "high", 200, 0.9),
	}
	view := func() View {
		return View{Capacity: 1000, Free: 100,
			Residents: append([]*object.Object(nil), residents...)}
	}
	cases := []*object.Object{
		mustObj(t, "fits", 100, 0.3),
		mustObj(t, "evicts-one", 450, 0.4),
		mustObj(t, "evicts-two", 700, 0.8),
		mustObj(t, "blocked", 900, 0.1),
		mustObj(t, "too-large", 2000, 1),
	}
	for _, in := range cases {
		t.Run(string(in.ID), func(t *testing.T) {
			want := pol.Plan(view(), in, 0)
			got := pol.PlanBatch(view(), []*object.Object{in}, 0)
			if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
				t.Errorf("PlanBatch = %+v, want %+v", got, want)
			}
		})
	}
}

// TestPlanBatchMembersNeverPreemptEachOther is the group-semantics contract:
// a member that would only fit by evicting an earlier member of the same
// batch is rejected, not admitted over its sibling.
func TestPlanBatchMembersNeverPreemptEachOther(t *testing.T) {
	pol := TemporalImportance{}
	view := View{Capacity: 1000, Free: 1000}
	batch := []*object.Object{
		mustObj(t, "first", 1000, 0.2),
		mustObj(t, "second", 1000, 0.9),
	}
	got := pol.PlanBatch(view, batch, 0)
	if !got[0].Admit {
		t.Fatalf("first member rejected: %+v", got[0])
	}
	if got[1].Admit {
		t.Fatalf("second member admitted over its sibling: %+v", got[1])
	}
	if got[1].Reason != ReasonFull {
		t.Errorf("second member reason = %v, want ReasonFull", got[1].Reason)
	}
}

// TestPlanBatchNoVictimConsumedTwice checks that victims consumed by an
// earlier member are skipped, not re-evicted, when a later member needs
// space too.
func TestPlanBatchNoVictimConsumedTwice(t *testing.T) {
	pol := TemporalImportance{}
	residents := []*object.Object{
		mustObj(t, "v1", 500, 0.1),
		mustObj(t, "v2", 500, 0.2),
	}
	view := View{Capacity: 1000, Free: 0, Residents: residents}
	batch := []*object.Object{
		mustObj(t, "a", 500, 0.8),
		mustObj(t, "b", 500, 0.8),
	}
	got := pol.PlanBatch(view, batch, 0)
	if !got[0].Admit || !got[1].Admit {
		t.Fatalf("both members should admit: %+v", got)
	}
	seen := map[object.ID]int{}
	for _, d := range got {
		for _, v := range d.Victims {
			seen[v.ID]++
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("victim %s consumed %d times", id, n)
		}
	}
	if len(seen) != 2 {
		t.Errorf("victims = %v, want v1 and v2 each once", seen)
	}
}

// TestPlanBatchExhaustionIsFull: a later member that runs out of preemptible
// candidates (they were consumed by siblings) is ReasonFull, and free space
// released by consumed victims is still accounted to earlier members only.
func TestPlanBatchExhaustionIsFull(t *testing.T) {
	pol := TemporalImportance{}
	residents := []*object.Object{
		mustObj(t, "v", 600, 0.1),
		mustObj(t, "pinned", 400, 1),
	}
	view := View{Capacity: 1000, Free: 0, Residents: residents}
	batch := []*object.Object{
		mustObj(t, "a", 600, 0.9),
		mustObj(t, "b", 600, 0.9),
	}
	got := pol.PlanBatch(view, batch, 0)
	if !got[0].Admit {
		t.Fatalf("first member rejected: %+v", got[0])
	}
	if got[1].Admit || got[1].Reason != ReasonFull {
		t.Errorf("second member = %+v, want ReasonFull", got[1])
	}
}

// TestPlanBatchLateMembersRunOut pins what a member reports when earlier
// members have consumed the cheap victims and no resident blocks it: a bare
// ReasonFull whose boundary is the highest importance among the candidates
// that were left (zero when none were), with those candidates left in place
// for the members after it.
func TestPlanBatchLateMembersRunOut(t *testing.T) {
	pol := TemporalImportance{}
	v, w := mustObj(t, "v", 600, 0.1), mustObj(t, "w", 100, 0.3)
	view := View{Capacity: 1000, Free: 300, Residents: []*object.Object{w, v}}
	batch := []*object.Object{
		mustObj(t, "a", 900, 0.9), // takes v and all the free space
		mustObj(t, "b", 400, 0.9), // only w is left, and it is too small
		mustObj(t, "c", 50, 0.9),  // w suffices
		mustObj(t, "d", 10, 0.9),  // fits what c left over
		mustObj(t, "e", 100, 0.9), // nothing left to preempt
	}
	want := []Decision{
		{Admit: true, Victims: []*object.Object{v}, HighestPreempted: 0.1, FreedBytes: 600},
		{Reason: ReasonFull, HighestPreempted: 0.3},
		{Admit: true, Victims: []*object.Object{w}, HighestPreempted: 0.3, FreedBytes: 100},
		{Admit: true},
		{Reason: ReasonFull},
	}
	got := pol.PlanBatch(view, batch, 0)
	for k := range want {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Errorf("member %s = %+v, want %+v", batch[k].ID, got[k], want[k])
		}
	}
}

// TestPlanBatchNilMembers: nil entries yield the zero Decision and do not
// disturb their neighbours.
func TestPlanBatchNilMembers(t *testing.T) {
	pol := TemporalImportance{}
	view := View{Capacity: 1000, Free: 1000}
	got := pol.PlanBatch(view, []*object.Object{nil, mustObj(t, "x", 100, 0.5), nil}, 0)
	if got[0].Admit || got[2].Admit {
		t.Errorf("nil members admitted: %+v", got)
	}
	if !got[1].Admit {
		t.Errorf("real member rejected: %+v", got[1])
	}
}

// planCounter counts Plan calls to prove which path PlanGroup takes.
type planCounter struct {
	Policy
	calls int
}

func (p *planCounter) Plan(view View, incoming *object.Object, now time.Duration) Decision {
	p.calls++
	return p.Policy.Plan(view, incoming, now)
}

// TestPlanGroupFallbackIsSequential: a policy without PlanBatch is planned
// member by member with the view updated in between, with the same
// never-preempt-a-sibling semantics.
func TestPlanGroupFallbackIsSequential(t *testing.T) {
	pc := &planCounter{Policy: Traditional{}}
	view := View{Capacity: 1000, Free: 1000}
	batch := []*object.Object{
		mustObj(t, "a", 600, 0.5),
		mustObj(t, "b", 600, 0.5), // does not fit after a under Traditional
		mustObj(t, "c", 400, 0.5),
	}
	got := PlanGroup(pc, view, batch, 0)
	if pc.calls != 3 {
		t.Errorf("Plan calls = %d, want 3", pc.calls)
	}
	if !got[0].Admit || got[1].Admit || !got[2].Admit {
		t.Errorf("decisions = %+v, want admit/reject/admit", got)
	}
}

// TestPlanGroupFallbackCopiesOnlyForLaterMembers: the sequential fallback
// plans a later member without an earlier member's victims yet never writes
// the borrowed view, and a group of one costs Plan plus the result slice.
func TestPlanGroupFallbackCopiesOnlyForLaterMembers(t *testing.T) {
	residents := make([]*object.Object, 64)
	for i := range residents {
		residents[i] = obj(t, fmt.Sprintf("r/%02d", (i+32)%64), 100, time.Duration((i+32)%64), importance.Constant{Level: 0.5})
	}
	view := View{Capacity: 6400, Residents: residents}
	before := slices.Clone(residents)
	group := []*object.Object{obj(t, "a", 250, 64, importance.Constant{Level: 0.5}), obj(t, "b", 250, 64, importance.Constant{Level: 0.5})}
	got := PlanGroup(FIFO{}, view, group, 64)
	var victims []object.ID
	for _, d := range got {
		for _, v := range d.Victims {
			victims = append(victims, v.ID)
		}
	}
	if want := []object.ID{"r/00", "r/01", "r/02", "r/03", "r/04"}; !slices.Equal(victims, want) {
		t.Errorf("victims = %v, want the five oldest, none twice: %v", victims, want)
	}
	if !slices.Equal(residents, before) {
		t.Error("PlanGroup wrote the view's resident slice")
	}
	one := group[:1]
	plan := testing.AllocsPerRun(20, func() { FIFO{}.Plan(view, one[0], 64) })
	if allocs := testing.AllocsPerRun(20, func() { PlanGroup(FIFO{}, view, one, 64) }); allocs > plan+1 {
		t.Errorf("a group of one allocates %v times, Plan %v", allocs, plan)
	}
}

// TestPlanGroupDispatchesToBatchPlanner: TemporalImportance plans the whole
// group in one PlanBatch call (one ranking), verified by comparing with the
// direct call.
func TestPlanGroupDispatchesToBatchPlanner(t *testing.T) {
	pol := TemporalImportance{}
	residents := []*object.Object{mustObj(t, "v", 500, 0.1)}
	view := func() View {
		return View{Capacity: 1000, Free: 500,
			Residents: append([]*object.Object(nil), residents...)}
	}
	batch := []*object.Object{
		mustObj(t, "a", 700, 0.9),
		mustObj(t, "b", 300, 0.9),
	}
	want := pol.PlanBatch(view(), batch, 0)
	got := PlanGroup(pol, view(), batch, 0)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PlanGroup = %+v, want %+v", got, want)
	}
}
