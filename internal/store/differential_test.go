package store

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
)

// The unit hands the planner its residents in whatever shape it keeps them.
// These tests hold every decision it makes against a restatement of Section
// 5.3 that fully sorts a snapshot of the residents taken before the
// operation, so no shortcut in how the unit stores or presents them can
// change a victim, their order, the boundary or the reason.

// fullSort returns residents ordered by the Section 5.3 rank at now: current
// importance, expiring before never-expiring, remaining lifetime, ID.
func fullSort(residents []*object.Object, now time.Duration) []*object.Object {
	out := append([]*object.Object(nil), residents...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if ai, bi := a.ImportanceAt(now), b.ImportanceAt(now); ai != bi {
			return ai < bi
		}
		ar, aok := a.Remaining(now)
		br, bok := b.Remaining(now)
		if aok != bok {
			return aok
		}
		if ar != br {
			return ar < br
		}
		return a.ID < b.ID
	})
	return out
}

// fullSortPlan decides the arrival of o into a unit of the given capacity
// and free bytes holding residents: walk the full sort, taking victims at
// importance zero or strictly below the arrival's until the bytes are covered.
func fullSortPlan(capacity, free int64, residents []*object.Object, o *object.Object, now time.Duration) policy.Decision {
	if o.Size > capacity {
		return policy.Decision{Reason: policy.ReasonTooLarge}
	}
	need := o.Size - free
	if need <= 0 {
		return policy.Decision{Admit: true}
	}
	arriving := o.ImportanceAt(now)
	var d policy.Decision
	for _, r := range fullSort(residents, now) {
		if need <= 0 {
			break
		}
		imp := r.ImportanceAt(now)
		if imp != 0 && imp >= arriving {
			return policy.Decision{Reason: policy.ReasonFull, HighestPreempted: imp}
		}
		d.Victims = append(d.Victims, r)
		d.FreedBytes += r.Size
		d.HighestPreempted = max(d.HighestPreempted, imp)
		need -= r.Size
	}
	if need > 0 {
		return policy.Decision{Reason: policy.ReasonFull, HighestPreempted: d.HighestPreempted}
	}
	d.Admit = true
	return d
}

// sameAs fails the test unless got is want byte for byte.
func sameAs(t *testing.T, what string, got, want policy.Decision) {
	t.Helper()
	if got.Admit != want.Admit || got.Reason != want.Reason || got.HighestPreempted != want.HighestPreempted ||
		got.FreedBytes != want.FreedBytes || len(got.Victims) != len(want.Victims) {
		t.Fatalf("%s:\n got %+v\nwant %+v", what, got, want)
	}
	for i, v := range got.Victims {
		if v != want.Victims[i] {
			t.Fatalf("%s: victim %d = %s, full sort %s", what, i, v.ID, want.Victims[i].ID)
		}
	}
}

// minus returns residents without the objects in gone.
func minus(residents, gone []*object.Object) []*object.Object {
	drop := make(map[*object.Object]bool, len(gone))
	for _, g := range gone {
		drop[g] = true
	}
	var kept []*object.Object
	for _, r := range residents {
		if !drop[r] {
			kept = append(kept, r)
		}
	}
	return kept
}

// TestUnitDecisionsMatchFullSort drives one unit with a seeded stream of
// every operation that admits, removes or replaces a resident, on a clock
// that advances by uneven steps and sometimes not at all. Functions are
// drawn from a small shared pool most of the time, so that many residents
// share one, and otherwise fresh, so that many stand alone; some arrivals
// are dated in the past, as a replica's or a restored object's are.
func TestUnitDecisionsMatchFullSort(t *testing.T) {
	pw, err := importance.NewPiecewise([]importance.Point{
		{Age: 0, Value: 0.9}, {Age: 2 * day, Value: 0.6}, {Age: 3 * day, Value: 0.6}, {Age: 9 * day, Value: 0},
	})
	if err != nil {
		t.Fatalf("NewPiecewise: %v", err)
	}
	shared := []importance.Function{
		importance.Linear{Start: 1, Expire: 20 * day},
		importance.Linear{Start: 0.6, Expire: 5 * day},
		importance.TwoStep{Plateau: 0.8, Persist: 3 * day, Wane: 10 * day},
		importance.Constant{Level: 0.4},
		importance.Dirac{},
		importance.Exponential{Start: 1, HalfLife: 2 * day, Expire: 30 * day},
		pw,
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var evicted []Eviction
			var rejected []Rejection
			u := newUnit(t, 12_000, policy.TemporalImportance{},
				WithEvictionHook(func(e Eviction) { evicted = append(evicted, e) }),
				WithRejectionHook(func(r Rejection) { rejected = append(rejected, r) }))
			pick := func() importance.Function {
				if rng.Intn(3) > 0 {
					return shared[rng.Intn(len(shared))]
				}
				if rng.Intn(2) == 0 {
					return importance.Linear{Start: float64(1+rng.Intn(5)) / 5, Expire: time.Duration(1+rng.Intn(20)) * day}
				}
				return importance.TwoStep{
					Plateau: float64(rng.Intn(6)) / 5,
					Persist: time.Duration(rng.Intn(8)) * day,
					Wane:    time.Duration(rng.Intn(8)) * day,
				}
			}
			now := 30 * day
			issued := 0
			outcomes := map[string]int{}
			fresh := func() *object.Object {
				issued++
				arrival := now
				if rng.Intn(6) == 0 {
					arrival -= time.Duration(rng.Int63n(int64(10 * day)))
				}
				return mkObj(t, fmt.Sprintf("o%05d", issued), int64(1+rng.Intn(800)), arrival, pick())
			}
			someResident := func(rs []*object.Object) *object.Object {
				if len(rs) == 0 || rng.Intn(10) == 0 {
					return nil
				}
				return rs[rng.Intn(len(rs))]
			}
			idOf := func(o *object.Object) object.ID {
				if o == nil {
					return "absent"
				}
				return o.ID
			}
			// expectEvictions checks the hook saw exactly the objects in want,
			// in order, each preempted by by.
			expectEvictions := func(step int, want []*object.Object, by object.ID) {
				t.Helper()
				if len(evicted) != len(want) {
					t.Fatalf("step %d: %d eviction records, want %d", step, len(evicted), len(want))
				}
				for i, e := range evicted {
					if e.Object != want[i] || e.PreemptedBy != by {
						t.Fatalf("step %d: eviction %d = %s by %q, want %s by %q",
							step, i, e.Object.ID, e.PreemptedBy, want[i].ID, by)
					}
				}
			}
			for step := 0; step < 3000; step++ {
				before, free, capacity := u.Residents(), u.Free(), u.Capacity()
				evicted, rejected = evicted[:0], rejected[:0]
				what := fmt.Sprintf("step %d", step)
				switch op := rng.Intn(14); op {
				case 0, 1:
					now += time.Duration(rng.Int63n(int64(day / 2)))
				case 2, 3, 4, 5, 6:
					o := fresh()
					want := fullSortPlan(capacity, free, before, o, now)
					sameAs(t, what+" probe", u.Probe(o, now), want)
					d, err := u.Put(o, now)
					if err != nil {
						t.Fatalf("%s: Put: %v", what, err)
					}
					sameAs(t, what+" put", d, want)
					switch {
					case !d.Admit:
						outcomes["reject"]++
					case len(d.Victims) > 0:
						outcomes["preempt"]++
					default:
						outcomes["free"]++
					}
					expectEvictions(step, d.Victims, o.ID)
					if !d.Admit && (len(rejected) != 1 || rejected[0].Boundary != d.HighestPreempted || rejected[0].Reason != d.Reason) {
						t.Fatalf("%s: rejection records %+v for %+v", what, rejected, d)
					}
				case 7:
					// A batch arrives at one instant: equal arrivals, and now
					// and then a member whose ID is already resident.
					group := make([]*object.Object, 1+rng.Intn(5))
					for k := range group {
						group[k] = fresh()
						group[k].Arrival = now
						if r := someResident(before); r != nil && rng.Intn(8) == 0 {
							group[k].ID = r.ID
						}
					}
					out := u.PutBatch(group, now)
					residents, left := before, free
					var victims []*object.Object
					for k, o := range group {
						if out[k].Err != nil {
							continue
						}
						want := fullSortPlan(capacity, left, residents, o, now)
						sameAs(t, fmt.Sprintf("%s member %d", what, k), out[k].Decision, want)
						if want.Admit {
							residents = minus(residents, want.Victims)
							left += want.FreedBytes - o.Size
							victims = append(victims, want.Victims...)
						}
					}
					if len(evicted) != len(victims) {
						t.Fatalf("%s: %d eviction records for %d victims", what, len(evicted), len(victims))
					}
				case 8:
					old := someResident(before)
					next := fresh()
					next.ID, next.Arrival = idOf(old), now
					d, err := u.Update(next, now)
					if old == nil {
						if err == nil {
							t.Fatalf("%s: Update of an absent ID succeeded", what)
						}
						break
					}
					if err != nil {
						t.Fatalf("%s: Update: %v", what, err)
					}
					want := fullSortPlan(capacity, free+old.Size, minus(before, []*object.Object{old}), next, now)
					sameAs(t, what+" update", d, want)
					if d.Admit {
						expectEvictions(step, append([]*object.Object{old}, d.Victims...), next.ID)
					} else if got, _ := u.Get(old.ID); got != old {
						t.Fatalf("%s: a rejected update replaced the resident version", what)
					}
				case 9:
					_, _ = u.Rejuvenate(idOf(someResident(before)), pick(), now)
				case 10:
					if o := fresh(); o.Size <= free {
						if err := u.Restore(o); err != nil {
							t.Fatalf("%s: Restore: %v", what, err)
						}
					}
				case 11:
					_ = u.Remove(idOf(someResident(before)))
				case 12:
					_ = u.Delete(idOf(someResident(before)))
				default:
					var expired []*object.Object
					for _, r := range before {
						if r.Expired(now) {
							expired = append(expired, r)
						}
					}
					if n := u.DropExpired(now); n != len(expired) {
						t.Fatalf("%s: DropExpired reclaimed %d, %d were expired", what, n, len(expired))
					}
					if left := minus(before, expired); len(left) != u.Len() {
						t.Fatalf("%s: %d residents after the sweep, want %d", what, u.Len(), len(left))
					}
				}
				used := int64(0)
				for _, r := range u.Residents() {
					used += r.Size
				}
				if used != u.Used() || used+u.Free() != capacity {
					t.Fatalf("%s: residents hold %d bytes, unit reports %d used and %d free", what, used, u.Used(), u.Free())
				}
			}
			for _, name := range []string{"free", "preempt", "reject"} {
				if outcomes[name] < 100 {
					t.Errorf("%d puts reached %q; the stream no longer covers it (all: %v)", outcomes[name], name, outcomes)
				}
			}
		})
	}
}
