package policy

import (
	"fmt"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// ownedObj builds a resident with an owner.
func ownedObj(t *testing.T, id string, owner string, size int64, arrival time.Duration, imp importance.Function) *object.Object {
	t.Helper()
	o := obj(t, id, size, arrival, imp)
	o.SetOwner(owner)
	return o
}

func TestFairShareAdmitsWithinQuota(t *testing.T) {
	p := FairShare{MaxFraction: 0.5}
	view := View{Capacity: 100, Free: 100}
	d := p.Plan(view, ownedObj(t, "a", "alice", 50, 0, constImp(1)), 0)
	if !d.Admit {
		t.Errorf("within-quota plan = %+v, want admit", d)
	}
}

func TestFairShareRejectsOversizedForQuota(t *testing.T) {
	p := FairShare{MaxFraction: 0.5}
	view := View{Capacity: 100, Free: 100}
	d := p.Plan(view, ownedObj(t, "a", "alice", 60, 0, constImp(1)), 0)
	if d.Admit || d.Reason != ReasonTooLarge {
		t.Errorf("over-quota-sized plan = %+v, want ReasonTooLarge", d)
	}
}

func TestFairShareQuotaForcesSelfPreemption(t *testing.T) {
	// Alice holds her full 50-byte share, part of it waning; her next
	// object must displace her own cheapest object, not touch Bob's.
	p := FairShare{MaxFraction: 0.5}
	view := View{Capacity: 100, Free: 20, Residents: []*object.Object{
		ownedObj(t, "alice-old", "alice", 30, 0, constImp(0.2)),
		ownedObj(t, "alice-new", "alice", 20, 0, constImp(0.9)),
		ownedObj(t, "bob-low", "bob", 30, 0, constImp(0.1)),
	}}
	d := p.Plan(view, ownedObj(t, "alice-in", "alice", 30, 0, constImp(0.8)), 0)
	if !d.Admit {
		t.Fatalf("plan = %+v, want admit", d)
	}
	if len(d.Victims) != 1 || d.Victims[0].ID != "alice-old" {
		t.Errorf("victims = %v, want alice's own cheapest object", d.Victims)
	}
}

func TestFairShareQuotaBlocksImportantOwnData(t *testing.T) {
	// Alice's share is full of importance-one objects: her next object is
	// rejected with ReasonQuota even though Bob has cheap data and free
	// space abounds elsewhere.
	p := FairShare{MaxFraction: 0.5}
	view := View{Capacity: 100, Free: 20, Residents: []*object.Object{
		ownedObj(t, "alice-1", "alice", 50, 0, constImp(1)),
		ownedObj(t, "bob-low", "bob", 30, 0, constImp(0.1)),
	}}
	d := p.Plan(view, ownedObj(t, "alice-in", "alice", 10, 0, constImp(1)), 0)
	if d.Admit || d.Reason != ReasonQuota {
		t.Errorf("plan = %+v, want ReasonQuota", d)
	}
	if d.HighestPreempted != 1 {
		t.Errorf("boundary = %v, want 1 (the blocking own object)", d.HighestPreempted)
	}
}

func TestFairSharePreventsStarvation(t *testing.T) {
	// The Section 1 scenario: a greedy user annotates everything at
	// importance one. Under plain temporal importance they freeze out
	// everyone; under FairShare half the unit stays winnable.
	greedyFill := func(p Policy) (greedyBytes int64) {
		view := View{Capacity: 100, Free: 100}
		now := time.Duration(0)
		for i := 0; ; i++ {
			in := ownedObj(t, fmt.Sprintf("greedy-%d", i), "greedy", 10, now, constImp(1))
			d := p.Plan(view, in, now)
			if !d.Admit {
				return 100 - view.Free
			}
			view.Free -= in.Size
			view.Residents = append(view.Residents, in)
			if view.Free <= 0 {
				return 100
			}
		}
	}
	if got := greedyFill(TemporalImportance{}); got != 100 {
		t.Errorf("plain policy: greedy user holds %d/100", got)
	}
	if got := greedyFill(FairShare{MaxFraction: 0.5}); got != 50 {
		t.Errorf("fair share: greedy user holds %d/100, want 50", got)
	}

	// The other user can still store at modest importance afterwards.
	p := FairShare{MaxFraction: 0.5}
	view := View{Capacity: 100, Free: 50}
	for i := 0; i < 5; i++ {
		view.Residents = append(view.Residents,
			ownedObj(t, fmt.Sprintf("greedy-%d", i), "greedy", 10, 0, constImp(1)))
	}
	d := p.Plan(view, ownedObj(t, "meek", "meek", 40, 0, constImp(0.3)), 0)
	if !d.Admit {
		t.Errorf("other user blocked despite fair share: %+v", d)
	}
}

func TestFairShareStageTwoUsesGlobalRules(t *testing.T) {
	// Within quota, admission behaves exactly like TemporalImportance:
	// cheap foreign objects are preemptible, expensive ones are not.
	p := FairShare{MaxFraction: 0.8}
	view := View{Capacity: 100, Free: 0, Residents: []*object.Object{
		ownedObj(t, "bob-cheap", "bob", 50, 0, constImp(0.2)),
		ownedObj(t, "bob-dear", "bob", 50, 0, constImp(0.9)),
	}}
	d := p.Plan(view, ownedObj(t, "alice-in", "alice", 40, 0, constImp(0.5)), 0)
	if !d.Admit || len(d.Victims) != 1 || d.Victims[0].ID != "bob-cheap" {
		t.Errorf("plan = %+v, want preemption of bob-cheap only", d)
	}
	blocked := p.Plan(view, ownedObj(t, "alice-big", "alice", 70, 0, constImp(0.5)), 0)
	if blocked.Admit || blocked.Reason != ReasonFull {
		t.Errorf("plan = %+v, want ReasonFull (bob-dear blocks)", blocked)
	}
}

func TestFairShareFullFractionMatchesTemporal(t *testing.T) {
	// MaxFraction 1 must agree with TemporalImportance on a shared state.
	fair := FairShare{MaxFraction: 1}
	var plain TemporalImportance
	view := View{Capacity: 100, Free: 10, Residents: []*object.Object{
		ownedObj(t, "a", "x", 40, 0, constImp(0.3)),
		ownedObj(t, "b", "y", 50, 0, constImp(0.7)),
	}}
	in := ownedObj(t, "in", "z", 45, 0, constImp(0.5))
	df, dp := fair.Plan(view, in, 0), plain.Plan(view, in, 0)
	if df.Admit != dp.Admit || len(df.Victims) != len(dp.Victims) ||
		df.HighestPreempted != dp.HighestPreempted {
		t.Errorf("fair %+v vs plain %+v", df, dp)
	}
}

func TestFairShareInvalidFraction(t *testing.T) {
	for _, f := range []float64{0, -0.5, 1.5} {
		p := FairShare{MaxFraction: f}
		d := p.Plan(View{Capacity: 100, Free: 100}, ownedObj(t, "a", "x", 10, 0, constImp(1)), 0)
		if d.Admit {
			t.Errorf("MaxFraction %v admitted an object", f)
		}
	}
}

func TestFairShareName(t *testing.T) {
	if (FairShare{}).Name() != "fair-share" {
		t.Error("unexpected name")
	}
	if ReasonQuota.String() != "quota" {
		t.Errorf("ReasonQuota.String() = %q", ReasonQuota.String())
	}
}
