package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
)

const (
	day = importance.Day
	mb  = int64(1) << 20
)

func mkObj(t *testing.T, id string, size int64, arrival time.Duration, imp importance.Function) *object.Object {
	t.Helper()
	o, err := object.New(object.ID(id), size, arrival, imp)
	if err != nil {
		t.Fatalf("object.New(%s): %v", id, err)
	}
	return o
}

func newCluster(t *testing.T, n int, capacity int64, opts ...Option) *Cluster {
	t.Helper()
	c, err := New(n, capacity, policy.TemporalImportance{}, 4, rand.New(rand.NewSource(1)), opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := New(1, mb, policy.TemporalImportance{}, 1, rng); !errors.Is(err, ErrBadSize) {
		t.Errorf("one unit err = %v, want ErrBadSize", err)
	}
	if _, err := New(10, mb, policy.TemporalImportance{}, 3, nil); !errors.Is(err, ErrNilRand) {
		t.Errorf("nil rng err = %v, want ErrNilRand", err)
	}
	if _, err := New(10, 0, policy.TemporalImportance{}, 3, rng); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := New(10, mb, policy.TemporalImportance{}, 3, rng, WithSampleSize(0)); err == nil {
		t.Error("zero sample size should fail")
	}
	if _, err := New(10, mb, policy.TemporalImportance{}, 3, rng, WithMaxTries(0)); err == nil {
		t.Error("zero max tries should fail")
	}
	if _, err := New(10, mb, policy.TemporalImportance{}, 3, rng, WithWalkLength(0)); err == nil {
		t.Error("zero walk length should fail")
	}
}

func TestPlaceIntoFreeSpace(t *testing.T) {
	c := newCluster(t, 10, 100*mb)
	p, ok, err := c.Place(mkObj(t, "a", 10*mb, 0, importance.Constant{Level: 1}), 0)
	if err != nil || !ok {
		t.Fatalf("Place = %+v, %v, %v", p, ok, err)
	}
	if p.Boundary != 0 {
		t.Errorf("free-space placement boundary = %v, want 0", p.Boundary)
	}
	u, err := c.Unit(p.Unit)
	if err != nil {
		t.Fatalf("Unit: %v", err)
	}
	if _, err := u.Get("a"); err != nil {
		t.Errorf("placed object not on reported unit: %v", err)
	}
	if c.Placements() != 1 || c.Rejections() != 0 {
		t.Errorf("counters = %d placements, %d rejections", c.Placements(), c.Rejections())
	}
}

func TestPlacePrefersLowestBoundary(t *testing.T) {
	// Fill every unit with importance 0.9 residents except one unit
	// filled at 0.2; a 0.5 arrival must land on the 0.2 unit.
	c := newCluster(t, 6, 100*mb, WithSampleSize(6), WithMaxTries(3))
	for i := 0; i < c.Len(); i++ {
		u, err := c.Unit(i)
		if err != nil {
			t.Fatalf("Unit: %v", err)
		}
		level := 0.9
		if i == 3 {
			level = 0.2
		}
		o := mkObj(t, fmt.Sprintf("fill-%d", i), 100*mb, 0, importance.Constant{Level: level})
		if _, err := u.Put(o, 0); err != nil {
			t.Fatalf("fill unit %d: %v", i, err)
		}
	}
	p, ok, err := c.Place(mkObj(t, "in", 50*mb, 0, importance.Constant{Level: 0.5}), 0)
	if err != nil || !ok {
		t.Fatalf("Place = %+v, %v, %v", p, ok, err)
	}
	if p.Unit != 3 {
		t.Errorf("placed on unit %d, want 3 (lowest boundary)", p.Unit)
	}
	if p.Boundary != 0.2 {
		t.Errorf("boundary = %v, want 0.2", p.Boundary)
	}
}

func TestPlaceRejectsWhenAllFull(t *testing.T) {
	var rejections []Rejection
	c := newCluster(t, 4, 100*mb,
		WithSampleSize(4), WithMaxTries(2),
		WithRejectionHook(func(r Rejection) { rejections = append(rejections, r) }))
	for i := 0; i < c.Len(); i++ {
		u, err := c.Unit(i)
		if err != nil {
			t.Fatalf("Unit: %v", err)
		}
		o := mkObj(t, fmt.Sprintf("fill-%d", i), 100*mb, 0, importance.Constant{Level: 1})
		if _, err := u.Put(o, 0); err != nil {
			t.Fatalf("fill unit %d: %v", i, err)
		}
	}
	p, ok, err := c.Place(mkObj(t, "in", 10*mb, 0, importance.Constant{Level: 0.5}), 0)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if ok {
		t.Fatalf("Place succeeded on a saturated cluster: %+v", p)
	}
	if c.Rejections() != 1 {
		t.Errorf("Rejections = %d, want 1", c.Rejections())
	}
	if len(rejections) != 1 || rejections[0].BestBoundary != 1 {
		t.Errorf("rejection hook = %+v, want boundary 1", rejections)
	}
}

func TestClusterEvictionHook(t *testing.T) {
	var evictions []Eviction
	c := newCluster(t, 4, 100*mb,
		WithSampleSize(4), WithMaxTries(3),
		WithEvictionHook(func(e Eviction) { evictions = append(evictions, e) }))
	for i := 0; i < c.Len(); i++ {
		u, err := c.Unit(i)
		if err != nil {
			t.Fatalf("Unit: %v", err)
		}
		o := mkObj(t, fmt.Sprintf("low-%d", i), 100*mb, 0, importance.Constant{Level: 0.1})
		if _, err := u.Put(o, 0); err != nil {
			t.Fatalf("fill unit %d: %v", i, err)
		}
	}
	p, ok, err := c.Place(mkObj(t, "in", 50*mb, 5*day, importance.Constant{Level: 0.9}), 5*day)
	if err != nil || !ok {
		t.Fatalf("Place = %+v, %v, %v", p, ok, err)
	}
	if len(evictions) != 1 {
		t.Fatalf("evictions = %+v, want one", evictions)
	}
	if evictions[0].Unit != p.Unit {
		t.Errorf("eviction on unit %d, placement on %d", evictions[0].Unit, p.Unit)
	}
	if evictions[0].Object.ID != object.ID(fmt.Sprintf("low-%d", p.Unit)) {
		t.Errorf("evicted %s on unit %d", evictions[0].Object.ID, p.Unit)
	}
}

func TestOffer(t *testing.T) {
	c := newCluster(t, 8, 100*mb)
	if err := c.Offer(mkObj(t, "a", mb, 0, importance.Constant{Level: 1}), 0); err != nil {
		t.Fatalf("Offer: %v", err)
	}
	if c.Placements() != 1 {
		t.Errorf("placements = %d, want one", c.Placements())
	}
}

func TestAverageDensity(t *testing.T) {
	c := newCluster(t, 4, 100*mb)
	if got := c.AverageDensity(0); got != 0 {
		t.Errorf("empty cluster density = %v, want 0", got)
	}
	u, err := c.Unit(0)
	if err != nil {
		t.Fatalf("Unit: %v", err)
	}
	if _, err := u.Put(mkObj(t, "a", 100*mb, 0, importance.Constant{Level: 1}), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got := c.AverageDensity(0); got != 0.25 {
		t.Errorf("density = %v, want 0.25 (one of four units full)", got)
	}
}

func TestScalePlacementsKeepCapacityInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, err := New(50, 50*mb, policy.TemporalImportance{}, 4, rng)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	now := time.Duration(0)
	for i := 0; i < 2000; i++ {
		now += time.Hour
		o := mkObj(t, fmt.Sprintf("o%05d", i), int64(1+rng.Intn(int(10*mb))), now,
			importance.TwoStep{
				Plateau: rng.Float64(),
				Persist: time.Duration(rng.Intn(20)) * day,
				Wane:    time.Duration(rng.Intn(20)) * day,
			})
		if err := c.Offer(o, now); err != nil {
			t.Fatalf("Offer %d: %v", i, err)
		}
	}
	for i := 0; i < c.Len(); i++ {
		u, err := c.Unit(i)
		if err != nil {
			t.Fatalf("Unit: %v", err)
		}
		if u.Used()+u.Free() != u.Capacity() {
			t.Fatalf("unit %d: used %d + free %d != capacity %d",
				i, u.Used(), u.Free(), u.Capacity())
		}
	}
	if d := c.AverageDensity(now); d < 0 || d > 1 {
		t.Errorf("average density = %v out of [0, 1]", d)
	}
	if c.Placements() == 0 {
		t.Error("no placements recorded")
	}
}

func TestUnitOutOfRange(t *testing.T) {
	c := newCluster(t, 4, mb)
	if _, err := c.Unit(-1); err == nil {
		t.Error("Unit(-1) should fail")
	}
	if _, err := c.Unit(4); err == nil {
		t.Error("Unit(4) should fail")
	}
}

func TestEstimateDensityMatchesTrueMean(t *testing.T) {
	c := newCluster(t, 30, 100*mb)
	// Give the units unequal densities.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < c.Len(); i++ {
		u, err := c.Unit(i)
		if err != nil {
			t.Fatalf("Unit: %v", err)
		}
		size := int64(1+rng.Intn(90)) * mb
		o := mkObj(t, fmt.Sprintf("d%02d", i), size, 0,
			importance.Constant{Level: rng.Float64()})
		if _, err := u.Put(o, 0); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	est, err := c.EstimateDensity(0, 1e-4, 500)
	if err != nil {
		t.Fatalf("EstimateDensity: %v", err)
	}
	if !est.Converged {
		t.Fatalf("gossip did not converge in %d rounds", est.Rounds)
	}
	if est.TrueMean != c.AverageDensity(0) {
		t.Errorf("TrueMean %v != AverageDensity %v", est.TrueMean, c.AverageDensity(0))
	}
	for i, e := range est.NodeEstimates {
		if diff := e - est.TrueMean; diff > 1e-3 || diff < -1e-3 {
			t.Fatalf("node %d estimate %v, true mean %v", i, e, est.TrueMean)
		}
	}
	if est.Rounds == 0 {
		t.Error("expected at least one gossip round for unequal densities")
	}
}

func TestEstimateDensityValidation(t *testing.T) {
	c := newCluster(t, 4, mb)
	if _, err := c.EstimateDensity(0, 0, 10); err == nil {
		t.Error("zero eps accepted")
	}
}

func TestReplaceUnit(t *testing.T) {
	c := newCluster(t, 4, 100*mb)
	u0, err := c.Unit(0)
	if err != nil {
		t.Fatalf("Unit: %v", err)
	}
	if _, err := u0.Put(mkObj(t, "victim-of-churn", 10*mb, 0, importance.Constant{Level: 1}), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := c.ReplaceUnit(0, 200*mb); err != nil {
		t.Fatalf("ReplaceUnit: %v", err)
	}
	fresh, err := c.Unit(0)
	if err != nil {
		t.Fatalf("Unit: %v", err)
	}
	if fresh.Capacity() != 200*mb || fresh.Len() != 0 {
		t.Errorf("replacement = cap %d, %d residents; want 200MB empty",
			fresh.Capacity(), fresh.Len())
	}
	if c.Replacements() != 1 {
		t.Errorf("Replacements = %d, want 1", c.Replacements())
	}
	// Placement still works and can land on the new unit.
	for i := 0; i < 20; i++ {
		if err := c.Offer(mkObj(t, fmt.Sprintf("post-churn-%d", i), 5*mb, 0,
			importance.Constant{Level: 0.5}), 0); err != nil {
			t.Fatalf("Offer: %v", err)
		}
	}
	if err := c.ReplaceUnit(-1, mb); err == nil {
		t.Error("negative index accepted")
	}
	if err := c.ReplaceUnit(4, mb); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestReplaceUnitKeepsEvictionHookWiring(t *testing.T) {
	var evictions []Eviction
	c := newCluster(t, 4, 100*mb,
		WithSampleSize(4), WithMaxTries(3),
		WithEvictionHook(func(e Eviction) { evictions = append(evictions, e) }))
	if err := c.ReplaceUnit(2, 50*mb); err != nil {
		t.Fatalf("ReplaceUnit: %v", err)
	}
	u, err := c.Unit(2)
	if err != nil {
		t.Fatalf("Unit: %v", err)
	}
	if _, err := u.Put(mkObj(t, "low", 50*mb, 0, importance.Constant{Level: 0.1}), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := u.Put(mkObj(t, "high", 40*mb, day, importance.Constant{Level: 0.9}), day); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if len(evictions) != 1 || evictions[0].Unit != 2 {
		t.Errorf("evictions = %+v, want one on unit 2", evictions)
	}
}
