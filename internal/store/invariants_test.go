package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
)

// TestInvariantRandomizedWorkload drives a unit with a random object stream
// and checks the paper's structural invariants after every operation:
//
//  1. used + free == capacity and both are non-negative;
//  2. the storage importance density stays in [0, 1];
//  3. an importance-one resident is never evicted by preemption;
//  4. every eviction preempts only objects whose current importance was
//     strictly below the preemptor's (or exactly zero);
//  5. rejected objects leave the unit untouched.
func TestInvariantRandomizedWorkload(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			arrivalsByID := make(map[object.ID]*object.Object)
			var evictions []Eviction
			u, err := New(10_000, policy.TemporalImportance{},
				WithEvictionHook(func(e Eviction) { evictions = append(evictions, e) }))
			if err != nil {
				t.Fatalf("New: %v", err)
			}

			now := time.Duration(0)
			for i := 0; i < 3000; i++ {
				now += time.Duration(rng.Intn(12)) * time.Hour
				var imp importance.Function
				switch rng.Intn(4) {
				case 0:
					imp = importance.Constant{Level: float64(rng.Intn(11)) / 10}
				case 1:
					imp = importance.Dirac{}
				default:
					imp = importance.TwoStep{
						Plateau: float64(1+rng.Intn(10)) / 10,
						Persist: time.Duration(rng.Intn(30)) * day,
						Wane:    time.Duration(rng.Intn(30)) * day,
					}
				}
				o, err := object.New(object.ID(fmt.Sprintf("o%05d", i)),
					int64(1+rng.Intn(3000)), now, imp)
				if err != nil {
					t.Fatalf("object.New: %v", err)
				}
				arrivalsByID[o.ID] = o

				beforeUsed, beforeLen := u.Used(), u.Len()
				evBefore := len(evictions)
				d, err := u.Put(o, now)
				if err != nil {
					t.Fatalf("Put %d: %v", i, err)
				}

				if u.Used()+u.Free() != u.Capacity() {
					t.Fatalf("step %d: used %d + free %d != capacity %d", i, u.Used(), u.Free(), u.Capacity())
				}
				if u.Used() < 0 || u.Free() < 0 {
					t.Fatalf("step %d: negative accounting", i)
				}
				if dens := u.DensityAt(now); dens < 0 || dens > 1+1e-9 {
					t.Fatalf("step %d: density %v out of range", i, dens)
				}
				if !d.Admit {
					if u.Used() != beforeUsed || u.Len() != beforeLen || len(evictions) != evBefore {
						t.Fatalf("step %d: rejection mutated the unit", i)
					}
					continue
				}
				incomingImp := o.ImportanceAt(now)
				for _, e := range evictions[evBefore:] {
					if e.PreemptedBy != o.ID {
						t.Fatalf("step %d: eviction attributed to %s, want %s", i, e.PreemptedBy, o.ID)
					}
					if e.Importance == 1 {
						t.Fatalf("step %d: importance-one object %s was preempted", i, e.Object.ID)
					}
					if e.Importance != 0 && e.Importance >= incomingImp {
						t.Fatalf("step %d: victim at %v preempted by arrival at %v",
							i, e.Importance, incomingImp)
					}
					if want := e.Time - e.Object.Arrival; e.LifetimeAchieved != want {
						t.Fatalf("step %d: lifetime achieved %v, want %v", i, e.LifetimeAchieved, want)
					}
				}
			}

			// Cross-check: every eviction corresponds to a real arrival and
			// no evicted object is still resident.
			for _, e := range evictions {
				if _, ok := arrivalsByID[e.Object.ID]; !ok {
					t.Fatalf("eviction of unknown object %s", e.Object.ID)
				}
				if _, err := u.Get(e.Object.ID); err == nil {
					t.Fatalf("evicted object %s still resident", e.Object.ID)
				}
			}
		})
	}
}

// checkSlots verifies the unit's resident index: the ID map and the compact
// slice hold the same residents, and every resident's recorded slot is the
// one it sits in.
func checkSlots(t *testing.T, u *Unit) {
	t.Helper()
	u.mu.Lock()
	defer u.mu.Unlock()
	if len(u.order) != len(u.residents) {
		t.Fatalf("%d residents in order, %d in the ID map", len(u.order), len(u.residents))
	}
	used := int64(0)
	for i, o := range u.order {
		if slot, ok := u.residents[o.ID]; !ok || slot != i {
			t.Fatalf("order[%d] = %s, recorded slot %d (present %t)", i, o.ID, slot, ok)
		}
		used += o.Size
	}
	if used+u.free != u.capacity {
		t.Fatalf("residents hold %d bytes, %d free, capacity %d", used, u.free, u.capacity)
	}
}

// TestInvariantSlotIndex drives every operation that links, unlinks or
// replaces a resident in random order and checks the resident index after
// each one.
func TestInvariantSlotIndex(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			u, err := New(20_000, policy.TemporalImportance{})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			fresh := func(i int, now time.Duration) *object.Object {
				o, err := object.New(object.ID(fmt.Sprintf("o%05d", i)), int64(1+rng.Intn(1500)), now,
					importance.TwoStep{
						Plateau: float64(1+rng.Intn(10)) / 10,
						Persist: time.Duration(rng.Intn(10)) * day,
						Wane:    time.Duration(rng.Intn(10)) * day,
					})
				if err != nil {
					t.Fatalf("object.New: %v", err)
				}
				return o
			}
			// someID names a resident (usually) or an absent object.
			someID := func() object.ID {
				if rs := u.Residents(); len(rs) > 0 && rng.Intn(8) > 0 {
					return rs[rng.Intn(len(rs))].ID
				}
				return "absent"
			}
			now := time.Duration(0)
			for i := 0; i < 4000; i++ {
				now += time.Duration(rng.Intn(6)) * time.Hour
				switch rng.Intn(9) {
				case 0, 1, 2:
					_, _ = u.Put(fresh(i, now), now)
				case 3:
					group := []*object.Object{fresh(i, now), nil, fresh(i+100_000, now), fresh(i, now)}
					u.PutBatch(group, now)
				case 4:
					_ = u.Delete(someID())
				case 5:
					_ = u.Remove(someID())
				case 6:
					_, _ = u.Rejuvenate(someID(), importance.Constant{Level: rng.Float64()}, now)
				case 7:
					next := fresh(i, now)
					next.ID = someID()
					_, _ = u.Update(next, now)
				default:
					if rng.Intn(4) == 0 {
						u.DropExpired(now)
					} else {
						_ = u.Restore(fresh(i, now))
					}
				}
				checkSlots(t, u)
			}
			if u.Len() == 0 {
				t.Error("the op mix left the unit empty; it no longer exercises the index")
			}
		})
	}
}

// TestConcurrentAccess exercises the unit from many goroutines under the
// race detector: puts, probes, reads and density queries must be safe.
func TestConcurrentAccess(t *testing.T) {
	u, err := New(1_000_000, policy.TemporalImportance{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			mk := func(id object.ID, now time.Duration) *object.Object {
				o, err := object.New(id, int64(1+rng.Intn(5000)), now,
					importance.TwoStep{Plateau: rng.Float64(), Persist: day, Wane: day})
				if err != nil {
					t.Error(err)
				}
				return o
			}
			for i := 0; i < 200; i++ {
				now := time.Duration(i) * time.Hour
				id := object.ID(fmt.Sprintf("w%d-o%d", w, i))
				o := mk(id, now)
				if o == nil {
					return
				}
				if _, err := u.Put(o, now); err != nil {
					t.Error(err)
					return
				}
				u.Probe(o, now)
				u.DensityAt(now)
				u.ByteImportance(now)
				_, _ = u.Get(id)
				// The rest of the exported surface: every mutating and
				// reading method runs against the other seven goroutines, so
				// -race sees each one's locking. Errors are other goroutines'
				// preemptions and are expected.
				for _, out := range u.PutBatch([]*object.Object{mk(id+"-p", now), mk(id+"-q", now)}, now) {
					if out.Err != nil {
						t.Error(out.Err)
					}
				}
				_, _ = u.Update(mk(id, now), now)
				_, _ = u.Rejuvenate(id+"-p", importance.Constant{Level: rng.Float64()}, now)
				u.DropExpired(now)
				u.SampleAt(now)
				u.BoundaryAt(now)
				u.Residents()
				u.Snapshot()
				u.CountersSnapshot()
				u.Len()
				if i%10 == 9 {
					_ = u.Delete(id)
				}
			}
		}()
	}
	wg.Wait()
	if u.Used()+u.Free() != u.Capacity() {
		t.Errorf("used %d + free %d != capacity %d", u.Used(), u.Free(), u.Capacity())
	}
}

// sloppyPolicy admits everything and names its first resident as a victim
// twice, followed by an object that is not resident at all.
type sloppyPolicy struct{}

func (sloppyPolicy) Name() string { return "sloppy" }

func (sloppyPolicy) Plan(view policy.View, _ *object.Object, _ time.Duration) policy.Decision {
	d := policy.Decision{Admit: true}
	if len(view.Residents) > 0 {
		stranger := *view.Residents[0]
		stranger.ID = "stranger"
		d.Victims = []*object.Object{view.Residents[0], view.Residents[0], &stranger}
	}
	return d
}

// TestSloppyPlanCannotCorruptIndex: a plan that repeats a victim or names a
// non-resident evicts each resident at most once and nobody else, on both the
// single and the batched path.
func TestSloppyPlanCannotCorruptIndex(t *testing.T) {
	evicted := 0
	u, err := New(1000, sloppyPolicy{}, WithEvictionHook(func(Eviction) { evicted++ }))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mk := func(id string) *object.Object {
		o, err := object.New(object.ID(id), 100, 0, importance.Constant{Level: 0.5})
		if err != nil {
			t.Fatalf("object.New: %v", err)
		}
		return o
	}
	for _, id := range []string{"a", "b", "c"} {
		if _, err := u.Put(mk(id), 0); err != nil {
			t.Fatalf("Put %s: %v", id, err)
		}
		checkSlots(t, u)
	}
	u.PutBatch([]*object.Object{mk("d"), mk("e")}, 0)
	checkSlots(t, u)
	// Puts b and c each evict one resident; the batch plans both members
	// against one view, so together they evict one more.
	if evicted != 3 || u.Len() != 2 || u.CountersSnapshot().Evicted != 3 {
		t.Errorf("evicted %d (counter %d), %d residents left; want 3 and 2",
			evicted, u.CountersSnapshot().Evicted, u.Len())
	}
}
