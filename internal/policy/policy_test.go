package policy

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

const day = importance.Day

// obj builds a resident with the given ID, size, arrival and importance.
func obj(t *testing.T, id string, size int64, arrival time.Duration, imp importance.Function) *object.Object {
	t.Helper()
	o, err := object.New(object.ID(id), size, arrival, imp)
	if err != nil {
		t.Fatalf("object.New(%s): %v", id, err)
	}
	return o
}

// constImp returns a never-expiring importance at the given level.
func constImp(level float64) importance.Function { return importance.Constant{Level: level} }

func TestTemporalImportanceAdmitsIntoFreeSpace(t *testing.T) {
	var p TemporalImportance
	view := View{Capacity: 100, Free: 100}
	d := p.Plan(view, obj(t, "a", 60, 0, constImp(0.1)), 0)
	if !d.Admit || len(d.Victims) != 0 || d.Reason != ReasonNone {
		t.Errorf("Plan into free space = %+v, want plain admit", d)
	}
}

func TestTemporalImportanceRejectsTooLarge(t *testing.T) {
	var p TemporalImportance
	view := View{Capacity: 100, Free: 100}
	d := p.Plan(view, obj(t, "a", 101, 0, constImp(1)), 0)
	if d.Admit || d.Reason != ReasonTooLarge {
		t.Errorf("Plan of oversized object = %+v, want ReasonTooLarge", d)
	}
}

func TestTemporalImportancePreemptsLowerImportance(t *testing.T) {
	var p TemporalImportance
	low := obj(t, "low", 50, 0, constImp(0.2))
	high := obj(t, "high", 50, 0, constImp(0.9))
	view := View{Capacity: 100, Free: 0, Residents: []*object.Object{high, low}}

	d := p.Plan(view, obj(t, "mid", 50, 100*day, constImp(0.5)), 100*day)
	if !d.Admit {
		t.Fatalf("Plan = %+v, want admit by preempting the 0.2 object", d)
	}
	if len(d.Victims) != 1 || d.Victims[0].ID != "low" {
		t.Errorf("victims = %v, want [low]", d.Victims)
	}
	if d.HighestPreempted != 0.2 {
		t.Errorf("HighestPreempted = %v, want 0.2", d.HighestPreempted)
	}
	if d.FreedBytes != 50 {
		t.Errorf("FreedBytes = %v, want 50", d.FreedBytes)
	}
}

func TestTemporalImportanceEqualImportanceCannotPreempt(t *testing.T) {
	var p TemporalImportance
	resident := obj(t, "r", 100, 0, constImp(0.5))
	view := View{Capacity: 100, Free: 0, Residents: []*object.Object{resident}}
	d := p.Plan(view, obj(t, "in", 50, 0, constImp(0.5)), 0)
	if d.Admit || d.Reason != ReasonFull {
		t.Errorf("equal importance plan = %+v, want ReasonFull", d)
	}
	if d.HighestPreempted != 0.5 {
		t.Errorf("boundary = %v, want the blocking importance 0.5", d.HighestPreempted)
	}
}

func TestTemporalImportanceOneIsNonPreemptible(t *testing.T) {
	var p TemporalImportance
	resident := obj(t, "r", 100, 0, constImp(1))
	view := View{Capacity: 100, Free: 0, Residents: []*object.Object{resident}}
	d := p.Plan(view, obj(t, "in", 10, 0, constImp(1)), 0)
	if d.Admit {
		t.Errorf("importance-one resident was preempted: %+v", d)
	}
}

func TestTemporalImportanceZeroIsFreelyReplaceable(t *testing.T) {
	var p TemporalImportance
	expired := obj(t, "r", 100, 0, importance.Dirac{})
	view := View{Capacity: 100, Free: 0, Residents: []*object.Object{expired}}
	// Even an incoming importance-zero object replaces an importance-zero
	// resident ("objects of importance zero may be freely replaced by any
	// other object").
	d := p.Plan(view, obj(t, "in", 100, 0, importance.Dirac{}), 0)
	if !d.Admit || len(d.Victims) != 1 {
		t.Errorf("zero-over-zero plan = %+v, want admit with one victim", d)
	}
}

func TestTemporalImportanceStopsAtBoundary(t *testing.T) {
	// Needs 90 bytes; the 0.1 and 0.3 residents free only 60, and the
	// next cheapest victim is at 0.8 >= incoming 0.5: reject, evict
	// nothing, report the 0.8 boundary.
	var p TemporalImportance
	view := View{Capacity: 100, Free: 0, Residents: []*object.Object{
		obj(t, "a", 30, 0, constImp(0.1)),
		obj(t, "b", 30, 0, constImp(0.3)),
		obj(t, "c", 40, 0, constImp(0.8)),
	}}
	d := p.Plan(view, obj(t, "in", 90, 0, constImp(0.5)), 0)
	if d.Admit || d.Reason != ReasonFull {
		t.Fatalf("plan = %+v, want ReasonFull", d)
	}
	if d.HighestPreempted != 0.8 {
		t.Errorf("boundary = %v, want 0.8", d.HighestPreempted)
	}
	if len(d.Victims) != 0 {
		t.Errorf("rejected plan proposed victims: %v", d.Victims)
	}
}

func TestTemporalImportanceEvictsInImportanceOrder(t *testing.T) {
	var p TemporalImportance
	view := View{Capacity: 100, Free: 0, Residents: []*object.Object{
		obj(t, "c", 30, 0, constImp(0.3)),
		obj(t, "a", 30, 0, constImp(0.1)),
		obj(t, "b", 40, 0, constImp(0.2)),
	}}
	d := p.Plan(view, obj(t, "in", 70, 0, constImp(0.9)), 0)
	if !d.Admit || len(d.Victims) != 2 {
		t.Fatalf("plan = %+v, want admit with 2 victims", d)
	}
	if d.Victims[0].ID != "a" || d.Victims[1].ID != "b" {
		t.Errorf("victims = [%s %s], want cheapest-first [a b]", d.Victims[0].ID, d.Victims[1].ID)
	}
	if d.HighestPreempted != 0.2 {
		t.Errorf("HighestPreempted = %v, want 0.2", d.HighestPreempted)
	}
}

func TestTemporalImportanceRemainingLifetimeTieBreak(t *testing.T) {
	var p TemporalImportance
	// Both residents are at importance 0.5 now; "soon" expires earlier
	// and must be preferred as the victim.
	soon := obj(t, "soon", 50, 0, importance.TwoStep{Plateau: 0.5, Persist: 10 * day, Wane: 0})
	late := obj(t, "late", 50, 0, importance.TwoStep{Plateau: 0.5, Persist: 100 * day, Wane: 0})
	view := View{Capacity: 100, Free: 0, Residents: []*object.Object{late, soon}}
	d := p.Plan(view, obj(t, "in", 50, 5*day, constImp(0.9)), 5*day)
	if !d.Admit || len(d.Victims) != 1 || d.Victims[0].ID != "soon" {
		t.Errorf("plan = %+v, want single victim 'soon'", d)
	}
}

func TestTemporalImportanceNeverExpiringSortsAfterExpiring(t *testing.T) {
	var p TemporalImportance
	expiring := obj(t, "expiring", 50, 0, importance.TwoStep{Plateau: 0.5, Persist: 1000 * day, Wane: 0})
	forever := obj(t, "forever", 50, 0, constImp(0.5))
	view := View{Capacity: 100, Free: 0, Residents: []*object.Object{forever, expiring}}
	d := p.Plan(view, obj(t, "in", 50, 0, constImp(0.9)), 0)
	if !d.Admit || len(d.Victims) != 1 || d.Victims[0].ID != "expiring" {
		t.Errorf("plan = %+v, want the expiring resident preempted first", d)
	}
}

func TestTemporalImportanceUsesCurrentImportance(t *testing.T) {
	var p TemporalImportance
	// At day 0 the resident is at plateau 0.9; at day 25 it has waned to
	// 0.3 and becomes preemptible by a 0.5 arrival.
	waning := obj(t, "w", 100, 0, importance.TwoStep{Plateau: 0.9, Persist: 15 * day, Wane: 15 * day})
	view := View{Capacity: 100, Free: 0, Residents: []*object.Object{waning}}

	early := p.Plan(view, obj(t, "in1", 50, 0, constImp(0.5)), 0)
	if early.Admit {
		t.Errorf("early plan admitted against plateau 0.9: %+v", early)
	}
	late := p.Plan(view, obj(t, "in2", 50, 25*day, constImp(0.5)), 25*day)
	if !late.Admit {
		t.Errorf("late plan rejected although resident waned to 0.3: %+v", late)
	}
}

func TestFIFOEvictsOldestAndNeverRejects(t *testing.T) {
	var p FIFO
	view := View{Capacity: 100, Free: 0, Residents: []*object.Object{
		obj(t, "new", 50, 10*day, constImp(1)),
		obj(t, "old", 50, 1*day, constImp(1)),
	}}
	d := p.Plan(view, obj(t, "in", 50, 20*day, importance.Dirac{}), 20*day)
	if !d.Admit || len(d.Victims) != 1 || d.Victims[0].ID != "old" {
		t.Errorf("plan = %+v, want oldest-first eviction of 'old'", d)
	}
	// FIFO ignores importance entirely: even importance-one residents go.
	if d.HighestPreempted != 1 {
		t.Errorf("projected HighestPreempted = %v, want 1", d.HighestPreempted)
	}
}

func TestFIFORejectsOnlyTooLarge(t *testing.T) {
	var p FIFO
	view := View{Capacity: 100, Free: 100}
	if d := p.Plan(view, obj(t, "big", 200, 0, importance.Dirac{}), 0); d.Admit || d.Reason != ReasonTooLarge {
		t.Errorf("oversized FIFO plan = %+v, want ReasonTooLarge", d)
	}
}

func TestTraditional(t *testing.T) {
	var p Traditional
	resident := obj(t, "r", 80, 0, constImp(0))
	view := View{Capacity: 100, Free: 20, Residents: []*object.Object{resident}}
	if d := p.Plan(view, obj(t, "fits", 20, 0, constImp(1)), 0); !d.Admit {
		t.Errorf("fitting object rejected: %+v", d)
	}
	// Even an expired resident is never reclaimed by Traditional.
	if d := p.Plan(view, obj(t, "in", 50, 0, constImp(1)), 0); d.Admit || d.Reason != ReasonFull {
		t.Errorf("overfull traditional plan = %+v, want ReasonFull", d)
	}
	if d := p.Plan(view, obj(t, "big", 101, 0, constImp(1)), 0); d.Reason != ReasonTooLarge {
		t.Errorf("oversized traditional plan = %+v, want ReasonTooLarge", d)
	}
}

func TestPolicyNames(t *testing.T) {
	if (TemporalImportance{}).Name() != "temporal-importance" ||
		(FIFO{}).Name() != "palimpsest-fifo" ||
		(Traditional{}).Name() != "traditional" {
		t.Error("unexpected policy names")
	}
}

func TestPlanDoesNotMutateView(t *testing.T) {
	var p TemporalImportance
	residents := []*object.Object{
		obj(t, "b", 50, 0, constImp(0.2)),
		obj(t, "a", 50, 0, constImp(0.1)),
	}
	view := View{Capacity: 100, Free: 0, Residents: residents}
	p.Plan(view, obj(t, "in", 60, 0, constImp(0.9)), 0)
	// The policy borrows the slice: neither its order nor its objects may
	// change.
	if residents[0].ID != "b" || residents[1].ID != "a" {
		t.Errorf("Plan reordered the view: %v", residents)
	}
	for _, o := range residents {
		if o.Size != 50 {
			t.Errorf("Plan mutated resident %s", o.ID)
		}
	}
}

// TestTemporalImportanceRunsOutOfCandidates pins the defensive tail of Plan:
// a view whose residents and free space do not add up to its capacity can
// leave an arrival short after every resident is taken. The plan is then a
// ReasonFull with no victims whose boundary is the highest importance it
// could have preempted -- the value distributed placement compares.
func TestTemporalImportanceRunsOutOfCandidates(t *testing.T) {
	var p TemporalImportance
	cases := []struct {
		name      string
		residents []*object.Object
		boundary  float64
	}{
		{"no residents", nil, 0},
		{"only expired", []*object.Object{obj(t, "z", 100, 0, importance.Dirac{})}, 0},
		{"all cheaper", []*object.Object{
			obj(t, "b", 100, 0, constImp(0.4)),
			obj(t, "z", 100, 0, importance.Dirac{}),
			obj(t, "a", 100, 0, constImp(0.2)),
		}, 0.4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			view := View{Capacity: 1000, Free: 0, Residents: c.residents}
			d := p.Plan(view, obj(t, "in", 500, 0, constImp(0.9)), 0)
			if d.Admit || d.Reason != ReasonFull || len(d.Victims) != 0 || d.FreedBytes != 0 {
				t.Fatalf("plan = %+v, want a bare ReasonFull", d)
			}
			if d.HighestPreempted != c.boundary {
				t.Errorf("boundary = %v, want %v", d.HighestPreempted, c.boundary)
			}
		})
	}
}

// saturatedView builds a full unit of n 128-byte residents whose importance
// decays linearly over a day, one arriving per millisecond, with the oldest
// -- the only one an arrival needs to preempt -- in the middle of the slice.
func saturatedView(tb testing.TB, n int) (View, time.Duration) {
	tb.Helper()
	residents := make([]*object.Object, n)
	for i := range residents {
		o, err := object.New(object.ID(fmt.Sprintf("r/%07d", i)), 128,
			time.Duration((i+n/2)%n)*time.Millisecond, importance.Linear{Start: 1, Expire: day})
		if err != nil {
			tb.Fatalf("object.New: %v", err)
		}
		residents[i] = o
	}
	return View{Capacity: int64(n) * 128, Residents: residents}, time.Duration(n) * time.Millisecond
}

// TestPlanAllocationsDoNotGrowWithResidents is the guard on the pressured
// admission path: planning against a saturated unit allocates the victim
// list and nothing that scales with the resident count.
func TestPlanAllocationsDoNotGrowWithResidents(t *testing.T) {
	var p TemporalImportance
	var bytes [2]uint64
	for i, n := range []int{4096, 65536} {
		view, now := saturatedView(t, n)
		in := obj(t, "in", 128, now, importance.Linear{Start: 1, Expire: day})
		plan := func() {
			if d := p.Plan(view, in, now); !d.Admit || len(d.Victims) != 1 {
				t.Fatalf("plan = %+v, want one victim", d)
			}
		}
		if allocs := testing.AllocsPerRun(20, plan); allocs > 2 {
			t.Errorf("%d residents: %v allocations per pressured Plan, want at most 2", n, allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 0; k < 20; k++ {
			plan()
		}
		runtime.ReadMemStats(&after)
		bytes[i] = after.TotalAlloc - before.TotalAlloc
	}
	if bytes[0] != bytes[1] {
		t.Errorf("20 pressured Plans allocate %d bytes at 4096 residents but %d at 65536", bytes[0], bytes[1])
	}
}

// BenchmarkPlanSaturated measures one pressured Plan and one rejected Plan
// against saturated units.
func BenchmarkPlanSaturated(b *testing.B) {
	var p TemporalImportance
	for _, n := range []int{4096, 65536} {
		view, now := saturatedView(b, n)
		for _, c := range []struct {
			name string
			imp  importance.Function
		}{
			{"admit", importance.Linear{Start: 1, Expire: day}},
			{"reject", importance.Constant{Level: 0.001}},
		} {
			in, err := object.New("in", 128, now, c.imp)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("residents=%d/%s", n, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p.Plan(view, in, now)
				}
			})
		}
	}
}
