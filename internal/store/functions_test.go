package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
)

// raceEnabled is set under -race (race_test.go), whose instrumentation
// allocates on its own account.
var raceEnabled bool

// checkRuns verifies what a unit keeps of its runs beside checkSlots's view:
// every run's key, function and handle agree with its index, every member
// holds its run's function and its slot names its run's handle, and every
// handle is either a live run's or free, once.
func checkRuns(t *testing.T, u *Unit) {
	t.Helper()
	u.mu.Lock()
	defer u.mu.Unlock()
	if len(u.runMeta) != len(u.runs) {
		t.Fatalf("%d runs, %d run records", len(u.runs), len(u.runMeta))
	}
	owner := make(map[int32]int)
	for i, m := range u.runMeta {
		if at, ok := u.runOf[m.key]; !ok || at != i {
			t.Fatalf("run %d's key is recorded at %d (present %t)", i, at, ok)
		}
		if int(u.runAt[m.handle]) != i {
			t.Fatalf("run %d's handle %d points at %d", i, m.handle, u.runAt[m.handle])
		}
		if j, ok := owner[m.handle]; ok {
			t.Fatalf("runs %d and %d share handle %d", j, i, m.handle)
		}
		owner[m.handle] = i
		for _, o := range u.runs[i] {
			if !reflect.DeepEqual(o.Importance, m.fn) {
				t.Fatalf("run %d member %s holds %v, the run %v", i, o.ID, o.Importance, m.fn)
			}
		}
	}
	for _, h := range u.freeHandles {
		if j, ok := owner[h]; ok {
			t.Fatalf("handle %d is free and run %d's", h, j)
		}
		owner[h] = -1
	}
	if len(owner) != len(u.runAt) {
		t.Fatalf("%d handles, %d of them live or free", len(u.runAt), len(owner))
	}
	for slot, o := range u.order {
		i := int(u.runAt[u.slotRun.at(slot)])
		if i >= len(u.runs) || !slices.Contains(u.runs[i], o) {
			t.Fatalf("slot %d (%s) names run %d, which does not hold it", slot, o.ID, i)
		}
	}
}

// encodedCopy returns o as a connection's decoder hands it to the unit: no
// function, and the function's encoding beside it.
func encodedCopy(t *testing.T, o *object.Object) (*object.Object, []byte) {
	t.Helper()
	enc, err := importance.Encode(o.Importance)
	if err != nil {
		t.Fatalf("Encode(%v): %v", o.Importance, err)
	}
	c := *o
	c.Importance = nil
	return &c, enc
}

// TestRunsKeepTheirHandles drives every operation that links, unlinks or
// replaces a resident, with arrivals that carry their functions and
// arrivals that carry encodings, over a pool of shared functions, functions
// of their own and a foreign one, in random order, and checks the unit's
// runs after each. One seed runs long enough to need more than 256 handles.
func TestRunsKeepTheirHandles(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			u := newUnit(t, 30_000, policy.TemporalImportance{})
			shared := []importance.Function{
				importance.Linear{Start: 1, Expire: 4 * day},
				importance.TwoStep{Plateau: 0.6, Persist: day, Wane: day},
				importance.Constant{Level: 0.2},
				importance.Dirac{},
			}
			foreign := &countingFn{Function: importance.Linear{Start: 0.5, Expire: 2 * day}}
			function := func(i int) importance.Function {
				switch r := rng.Intn(10); {
				case r < 6:
					return shared[rng.Intn(len(shared))]
				case r < 9 || seed != 1:
					return importance.Linear{Start: 1, Expire: 100*day + time.Duration(i)*time.Second}
				default:
					return foreign
				}
			}
			// Seed 1's residents are small enough to hold past 256 functions
			// of their own at once.
			sizes := 400
			if seed == 1 {
				sizes = 30
			}
			fresh := func(i int, now time.Duration) *object.Object {
				return mkObj(t, fmt.Sprintf("o%05d", i), int64(1+rng.Intn(sizes)), now, function(i))
			}
			someID := func() object.ID {
				if rs := u.Residents(); len(rs) > 0 && rng.Intn(8) > 0 {
					return rs[rng.Intn(len(rs))].ID
				}
				return "absent"
			}
			now := time.Duration(0)
			ops := 3000
			if seed == 1 {
				ops = 6000
			}
			for i := 0; i < ops; i++ {
				now += time.Duration(rng.Intn(4)) * time.Hour
				switch rng.Intn(9) {
				case 0, 1:
					_, _ = u.Put(fresh(i, now), now)
				case 2, 3:
					var objs []*object.Object
					var encs [][]byte
					for k := 0; k < 1+rng.Intn(6); k++ {
						o := fresh(i+100_000*k, now)
						if _, ok := o.Importance.(*countingFn); ok || rng.Intn(4) == 0 {
							objs, encs = append(objs, o), append(encs, nil)
							continue
						}
						c, enc := encodedCopy(t, o)
						objs, encs = append(objs, c), append(encs, enc)
					}
					u.PutBatchEncoded(objs, encs, now)
				case 4:
					_ = u.Delete(someID())
				case 5:
					_, _ = u.Rejuvenate(someID(), shared[rng.Intn(len(shared)-1)], now)
				case 6:
					next := fresh(i, now)
					next.ID = someID()
					_, _ = u.Update(next, now)
				case 7:
					_ = u.Remove(someID())
				default:
					if rng.Intn(3) == 0 {
						u.DropExpired(now)
					} else {
						_ = u.Restore(fresh(i, now))
					}
				}
				checkSlots(t, u)
				checkRuns(t, u)
			}
			if seed == 1 && u.slotRun.wide == nil {
				t.Errorf("%d handles after %d operations: the one-byte slots were never outgrown", len(u.runAt), ops)
			}
		})
	}
}

// TestPutBatchEncodedIsPutBatch: arrivals that carry their functions'
// encodings are admitted, rejected and preempted exactly as the same
// arrivals carrying the functions, group by group, and leave the same
// residents.
func TestPutBatchEncodedIsPutBatch(t *testing.T) {
	for _, pol := range []policy.Policy{policy.TemporalImportance{}, policy.FIFO{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			plain := newUnit(t, 20_000, pol)
			encoded := newUnit(t, 20_000, pol)
			fns := []importance.Function{
				importance.Linear{Start: 1, Expire: 3 * day},
				importance.TwoStep{Plateau: 0.6, Persist: day, Wane: day},
				importance.Constant{Level: 0.2},
				importance.Exponential{Start: 0.9, HalfLife: day, Expire: 5 * day},
			}
			now := time.Duration(0)
			next := 0
			for g := 0; g < 600; g++ {
				now += time.Duration(rng.Intn(5)) * time.Hour
				var objs, copies []*object.Object
				var encs [][]byte
				for range 1 + rng.Intn(8) {
					id := fmt.Sprintf("o%05d", next)
					if rng.Intn(10) == 0 && next > 0 {
						id = fmt.Sprintf("o%05d", rng.Intn(next)) // a duplicate, resident or not
					}
					next++
					o := mkObj(t, id, int64(1+rng.Intn(900)), now, fns[rng.Intn(len(fns))])
					c, enc := encodedCopy(t, o)
					objs, copies, encs = append(objs, o), append(copies, c), append(encs, enc)
				}
				want := plain.PutBatch(objs, now)
				got := encoded.PutBatchEncoded(copies, encs, now)
				for k := range want {
					if (want[k].Err == nil) != (got[k].Err == nil) || !sameDecision(want[k].Decision, got[k].Decision) {
						t.Fatalf("group %d member %d: encoded %+v, plain %+v", g, k, got[k], want[k])
					}
				}
				if a, b := residentTuples(plain, now), residentTuples(encoded, now); !reflect.DeepEqual(a, b) {
					t.Fatalf("group %d: residents diverged:\n%v\n%v", g, b, a)
				}
			}
			checkSlots(t, encoded)
			checkRuns(t, encoded)
		})
	}
}

func sameDecision(a, b policy.Decision) bool {
	if a.Admit != b.Admit || a.Reason != b.Reason || a.HighestPreempted != b.HighestPreempted ||
		len(a.Victims) != len(b.Victims) {
		return false
	}
	for i := range a.Victims {
		if a.Victims[i].ID != b.Victims[i].ID {
			return false
		}
	}
	return true
}

func residentTuples(u *Unit, now time.Duration) []string {
	var out []string
	for _, o := range u.Residents() {
		out = append(out, fmt.Sprintf("%s %d %v %v", o.ID, o.Size, o.Arrival, o.ImportanceAt(now)))
	}
	return out
}

// TestEncodedArrivalsTakeTheirRunsFunction: on a full unit whose runs hold
// the arrivals' functions, a group of encoded arrivals allocates what
// PutBatch returns and nothing else -- no function is decoded -- and each
// admitted arrival holds its run's function.
func TestEncodedArrivalsTakeTheirRunsFunction(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const width, size, live = 16, 100, 256
	u := newUnit(t, live*size, policy.TemporalImportance{})
	// Both start at 1 and fall, so an arrival preempts the oldest resident.
	fns := []importance.Function{
		importance.Linear{Start: 1, Expire: 30 * day},
		importance.Exponential{Start: 1, HalfLife: 10 * day, Expire: 60 * day},
	}
	encs := make([][]byte, len(fns))
	for i, f := range fns {
		enc, err := importance.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		encs[i] = enc
	}
	const runs = 50
	groups := make([][]*object.Object, live/width+runs+1)
	groupEncs := make([][]byte, width)
	next := 0
	for g := range groups {
		groups[g] = make([]*object.Object, width)
		for k := range groups[g] {
			groups[g][k] = &object.Object{ID: object.ID(fmt.Sprintf("o%05d", next)), Size: size, Version: 1}
			next++
		}
	}
	for k := range groupEncs {
		groupEncs[k] = encs[k%len(encs)]
	}
	now := time.Duration(0)
	put := func() {
		now += time.Minute
		objs := groups[0]
		groups = groups[1:]
		for _, o := range objs {
			o.Arrival = now
		}
		for _, r := range u.PutBatchEncoded(objs, groupEncs, now) {
			if r.Err != nil || !r.Decision.Admit {
				t.Fatalf("an arrival was refused: %+v", r)
			}
		}
	}
	for range live / width {
		put()
	}
	// The outcomes and the one array of every decision's victims.
	if got := testing.AllocsPerRun(runs, put); got != 2 {
		t.Errorf("a group of %d encoded arrivals allocates %.0f times, want 2", width, got)
	}
	checkRuns(t, u)
	if len(u.runs) != len(fns) {
		t.Errorf("%d runs for %d functions", len(u.runs), len(fns))
	}
}
