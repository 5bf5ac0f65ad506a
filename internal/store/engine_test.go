package store

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
)

// The engine's merged views are pinned here against the shards they merge:
// every observable an Engine reports must be derivable from its Units, and
// an Engine of one shard must be indistinguishable from a bare Unit.

const (
	engineObjSize   = 128
	engineShardCap  = 16 * engineObjSize // equal sizes tile a shard exactly, so shards do fill
	engineStreamOps = 1500
)

// engineOp is one step of a seeded op stream, applicable to an Engine and to
// a bare Unit alike.
type engineOp struct {
	kind string // "put", "delete", "rejuvenate", "expire"
	id   object.ID
	imp  importance.Function
	now  time.Duration
}

// engineStream returns a deterministic op stream: mostly fresh-ID puts far
// beyond capacity, with deletes and rejuvenations of earlier IDs (resident
// or long gone) and expiry sweeps in between, on an advancing clock.
func engineStream(seed int64) []engineOp {
	rng := rand.New(rand.NewSource(seed))
	randImp := func() importance.Function {
		switch rng.Intn(5) {
		case 0:
			return importance.Constant{Level: float64(1+rng.Intn(10)) / 10}
		case 1:
			return importance.TwoStep{Plateau: 0.5, Persist: time.Duration(1+rng.Intn(3)) * day, Wane: day}
		default:
			return importance.TwoStep{
				Plateau: float64(1+rng.Intn(10)) / 10,
				Persist: time.Duration(30+rng.Intn(300)) * day,
				Wane:    time.Duration(30+rng.Intn(300)) * day,
			}
		}
	}
	ops := make([]engineOp, 0, engineStreamOps)
	now := time.Duration(0)
	issued := 0
	for len(ops) < engineStreamOps {
		now += time.Duration(rng.Intn(6)) * time.Hour
		op := engineOp{now: now}
		switch r := rng.Intn(100); {
		case r < 72 || issued == 0:
			op.kind, op.id, op.imp = "put", object.ID(fmt.Sprintf("obj-%05d", issued)), randImp()
			issued++
		case r < 84:
			op.kind, op.id = "delete", object.ID(fmt.Sprintf("obj-%05d", rng.Intn(issued)))
		case r < 96:
			op.kind, op.id, op.imp = "rejuvenate", object.ID(fmt.Sprintf("obj-%05d", rng.Intn(issued))), randImp()
		default:
			op.kind = "expire"
		}
		ops = append(ops, op)
	}
	return ops
}

// opResult is everything a caller can observe from one op.
type opResult struct {
	admit    bool
	boundary float64
	reason   policy.Reason
	victims  []object.ID
	dropped  int
	err      string
}

func resultOf(d policy.Decision, dropped int, err error) opResult {
	r := opResult{admit: d.Admit, boundary: d.HighestPreempted, reason: d.Reason, dropped: dropped}
	for _, v := range d.Victims {
		r.victims = append(r.victims, v.ID)
	}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

func newStreamObject(t *testing.T, op engineOp) *object.Object {
	t.Helper()
	o, err := object.New(op.id, engineObjSize, op.now, op.imp)
	if err != nil {
		t.Fatalf("object.New(%s): %v", op.id, err)
	}
	return o
}

// applyToEngine routes one op the way the server does: puts by Place,
// everything else by Locate.
func applyToEngine(t *testing.T, e *Engine, op engineOp) opResult {
	t.Helper()
	switch op.kind {
	case "put":
		o := newStreamObject(t, op)
		d, err := e.Shard(e.Place(o, op.now)).Put(o, op.now)
		return resultOf(d, 0, err)
	case "delete":
		idx, _ := e.Locate(op.id)
		return resultOf(policy.Decision{}, 0, e.Shard(idx).Delete(op.id))
	case "rejuvenate":
		idx, _ := e.Locate(op.id)
		_, err := e.Shard(idx).Rejuvenate(op.id, op.imp, op.now)
		return resultOf(policy.Decision{}, 0, err)
	default:
		n := 0
		for i := 0; i < e.NumShards(); i++ {
			n += e.Shard(i).DropExpired(op.now)
		}
		return resultOf(policy.Decision{}, n, nil)
	}
}

func applyToUnit(t *testing.T, u *Unit, op engineOp) opResult {
	t.Helper()
	switch op.kind {
	case "put":
		o := newStreamObject(t, op)
		d, err := u.Put(o, op.now)
		return resultOf(d, 0, err)
	case "delete":
		return resultOf(policy.Decision{}, 0, u.Delete(op.id))
	case "rejuvenate":
		_, err := u.Rejuvenate(op.id, op.imp, op.now)
		return resultOf(policy.Decision{}, 0, err)
	default:
		return resultOf(policy.Decision{}, u.DropExpired(op.now), nil)
	}
}

func residentIDs(objs []*object.Object) []object.ID {
	ids := make([]object.ID, len(objs))
	for i, o := range objs {
		ids[i] = o.ID
	}
	return ids
}

func newTestEngine(t *testing.T, shards int) *Engine {
	t.Helper()
	e, err := NewEngine(EngineConfig{
		Shards: shards, Capacity: int64(shards) * engineShardCap, Policy: policy.TemporalImportance{},
	}, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

// checkMergedViews asserts every merged Engine view against its shards.
func checkMergedViews(t *testing.T, e *Engine, now time.Duration, step int) (anyRoom bool) {
	t.Helper()
	var used, free int64
	var n int
	var counters Counters
	var union []*object.Object
	weighted := 0.0
	minBoundary := math.Inf(1)
	for i := 0; i < e.NumShards(); i++ {
		u := e.Shard(i)
		used += u.Used()
		free += u.Free()
		n += u.Len()
		c := u.CountersSnapshot()
		counters.Admitted += c.Admitted
		counters.Rejected += c.Rejected
		counters.Evicted += c.Evicted
		counters.Deleted += c.Deleted
		counters.AdmittedBytes += c.AdmittedBytes
		counters.EvictedBytes += c.EvictedBytes
		union = append(union, u.Residents()...)
		weighted += u.DensityAt(now) * float64(u.Capacity())
		if u.Free() > 0 {
			anyRoom = true
		}
		minBoundary = math.Min(minBoundary, u.BoundaryAt(now))
	}
	if e.Used() != used || e.Free() != free || e.Len() != n {
		t.Fatalf("step %d: engine used/free/len %d/%d/%d, shard sums %d/%d/%d",
			step, e.Used(), e.Free(), e.Len(), used, free, n)
	}
	if used+free != e.Capacity() {
		t.Fatalf("step %d: used %d + free %d != capacity %d", step, used, free, e.Capacity())
	}
	if got := e.CountersSnapshot(); got != counters {
		t.Fatalf("step %d: engine counters %+v, shard sums %+v", step, got, counters)
	}

	// Residents: ID-sorted, and exactly the union of the shards'.
	residents := e.Residents()
	if !sort.SliceIsSorted(residents, func(i, j int) bool { return residents[i].ID < residents[j].ID }) {
		t.Fatalf("step %d: engine residents not sorted by ID", step)
	}
	sort.Slice(union, func(i, j int) bool { return union[i].ID < union[j].ID })
	if !reflect.DeepEqual(residentIDs(residents), residentIDs(union)) {
		t.Fatalf("step %d: engine residents differ from the union of the shards'", step)
	}

	// Density: the capacity-weighted shard densities, which is also the
	// definition recomputed from the residents.
	density := e.DensityAt(now)
	if want := weighted / float64(e.Capacity()); math.Abs(density-want) > 1e-12 {
		t.Fatalf("step %d: engine density %v, capacity-weighted shard densities %v", step, density, want)
	}
	recomputed := 0.0
	for _, o := range residents {
		recomputed += o.WeightedImportance(now)
	}
	recomputed /= float64(e.Capacity())
	if math.Abs(density-recomputed) > 1e-9 {
		t.Fatalf("step %d: engine density %v, recomputed from residents %v", step, density, recomputed)
	}
	samples := 0
	for i := 0; i < e.NumShards(); i++ {
		samples += len(e.Shard(i).ByteImportance(now))
	}
	if samples != n {
		t.Fatalf("step %d: %d byte-importance samples over the shards for %d residents", step, samples, n)
	}

	// Boundary: zero while any shard has room, else the cheapest shard's.
	sample := e.SampleAt(now)
	wantBoundary := minBoundary
	if anyRoom {
		wantBoundary = 0
	}
	if sample.Boundary != wantBoundary || e.BoundaryAt(now) != wantBoundary {
		t.Fatalf("step %d: merged boundary %v (BoundaryAt %v), want %v (any room: %t)",
			step, sample.Boundary, e.BoundaryAt(now), wantBoundary, anyRoom)
	}
	if sample.Used != used || sample.At != now || math.Abs(sample.Density-density) > 1e-12 {
		t.Fatalf("step %d: merged sample %+v disagrees with used %d density %v", step, sample, used, density)
	}
	return anyRoom
}

func TestEngineMergedViewsEqualShardSums(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			shards, seed := shards, seed
			t.Run(fmt.Sprintf("shards%d/seed%d", shards, seed), func(t *testing.T) {
				e := newTestEngine(t, shards)
				sawRoom, sawBoundary := false, false
				for step, op := range engineStream(seed) {
					applyToEngine(t, e, op)
					if checkMergedViews(t, e, op.now, step) {
						sawRoom = true
					} else if e.BoundaryAt(op.now) > 0 {
						sawBoundary = true
					}
				}
				if !sawRoom || !sawBoundary {
					t.Fatalf("stream reached room=%t, full with a nonzero boundary=%t; want both regimes", sawRoom, sawBoundary)
				}
			})
		}
	}
}

// TestEngineHomeAndLocate: Home is fnv-64a of the ID modulo the shard count
// -- stable across engines and calls -- every resident sits on its home
// shard, and Locate reports resident exactly for the residents.
func TestEngineHomeAndLocate(t *testing.T) {
	for _, shards := range []int{1, 4} {
		e, twin := newTestEngine(t, shards), newTestEngine(t, shards)
		issued := make(map[object.ID]bool)
		for _, op := range engineStream(7) {
			applyToEngine(t, e, op)
			if op.id != "" {
				issued[op.id] = true
			}
		}
		resident := make(map[object.ID]bool)
		for _, o := range e.Residents() {
			resident[o.ID] = true
		}
		if len(resident) == 0 || len(resident) == len(issued) {
			t.Fatalf("shards %d: %d of %d issued IDs resident; want some but not all", shards, len(resident), len(issued))
		}
		for id := range issued {
			h := fnv.New64a()
			h.Write([]byte(id))
			want := int(h.Sum64() % uint64(shards))
			if got := e.Home(id); got != want || twin.Home(id) != want {
				t.Fatalf("shards %d: Home(%s) = %d (twin %d), want fnv-64a mod n = %d", shards, id, got, twin.Home(id), want)
			}
			idx, ok := e.Locate(id)
			if ok != resident[id] || idx != want {
				t.Fatalf("shards %d: Locate(%s) = (%d, %t), want (%d, %t)", shards, id, idx, ok, want, resident[id])
			}
			_, getErr := e.Get(id)
			if (getErr == nil) != resident[id] {
				t.Fatalf("shards %d: Get(%s) err %v, resident %t", shards, id, getErr, resident[id])
			}
			if _, err := e.Shard(want).Get(id); (err == nil) != resident[id] {
				t.Fatalf("shards %d: %s resident %t but home shard says %v", shards, id, resident[id], err)
			}
		}
	}
}

// TestSingleShardEngineIsAUnit: an N = 1 engine and a bare Unit fed the
// same stream answer every op identically and report the same state.
func TestSingleShardEngineIsAUnit(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		e := newTestEngine(t, 1)
		u, err := New(engineShardCap, policy.TemporalImportance{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for step, op := range engineStream(seed) {
			got, want := applyToEngine(t, e, op), applyToUnit(t, u, op)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (%s %s): engine %+v, unit %+v", seed, step, op.kind, op.id, got, want)
			}
			if e.Used() != u.Used() || e.Free() != u.Free() || e.Len() != u.Len() ||
				e.CountersSnapshot() != u.CountersSnapshot() {
				t.Fatalf("seed %d step %d: engine and unit accounting diverged", seed, step)
			}
			if e.DensityAt(op.now) != u.DensityAt(op.now) || e.SampleAt(op.now) != u.SampleAt(op.now) {
				t.Fatalf("seed %d step %d: engine sample %+v, unit %+v", seed, step, e.SampleAt(op.now), u.SampleAt(op.now))
			}
			if !reflect.DeepEqual(e.Residents(), u.Residents()) {
				t.Fatalf("seed %d step %d: resident sets diverged", seed, step)
			}
			if !reflect.DeepEqual(e.Shard(0).ByteImportance(op.now), u.ByteImportance(op.now)) {
				t.Fatalf("seed %d step %d: byte-importance samples diverged", seed, step)
			}
		}
	}
}
