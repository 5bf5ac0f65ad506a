package store

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
)

const day = importance.Day

func newUnit(t *testing.T, capacity int64, pol policy.Policy, opts ...Option) *Unit {
	t.Helper()
	u, err := New(capacity, pol, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return u
}

func mkObj(t *testing.T, id string, size int64, arrival time.Duration, imp importance.Function) *object.Object {
	t.Helper()
	o, err := object.New(object.ID(id), size, arrival, imp)
	if err != nil {
		t.Fatalf("object.New(%s): %v", id, err)
	}
	return o
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, policy.TemporalImportance{}); !errors.Is(err, ErrBadCapacity) {
		t.Errorf("zero capacity err = %v, want ErrBadCapacity", err)
	}
	if _, err := New(-1, policy.TemporalImportance{}); !errors.Is(err, ErrBadCapacity) {
		t.Errorf("negative capacity err = %v, want ErrBadCapacity", err)
	}
	if _, err := New(100, nil); !errors.Is(err, ErrNilPolicy) {
		t.Errorf("nil policy err = %v, want ErrNilPolicy", err)
	}
}

func TestPutGetDelete(t *testing.T) {
	u := newUnit(t, 100, policy.TemporalImportance{}, WithName("n1"))
	if u.Name() != "n1" {
		t.Errorf("Name = %q, want n1", u.Name())
	}
	o := mkObj(t, "a", 40, 0, importance.Constant{Level: 1})
	d, err := u.Put(o, 0)
	if err != nil || !d.Admit {
		t.Fatalf("Put = %+v, %v", d, err)
	}
	if u.Used() != 40 || u.Free() != 60 || u.Len() != 1 {
		t.Errorf("Used/Free/Len = %d/%d/%d, want 40/60/1", u.Used(), u.Free(), u.Len())
	}
	got, err := u.Get("a")
	if err != nil || got.ID != "a" {
		t.Errorf("Get = %v, %v", got, err)
	}
	if _, err := u.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get missing err = %v, want ErrNotFound", err)
	}
	if err := u.Delete("a"); err != nil {
		t.Errorf("Delete: %v", err)
	}
	if err := u.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("second Delete err = %v, want ErrNotFound", err)
	}
	if u.Used() != 0 || u.Len() != 0 {
		t.Errorf("after delete Used/Len = %d/%d, want 0/0", u.Used(), u.Len())
	}
	c := u.CountersSnapshot()
	if c.Admitted != 1 || c.Deleted != 1 || c.Evicted != 0 {
		t.Errorf("counters = %+v", c)
	}
}

func TestPutDuplicateID(t *testing.T) {
	u := newUnit(t, 100, policy.TemporalImportance{})
	o := mkObj(t, "a", 10, 0, importance.Constant{Level: 1})
	if _, err := u.Put(o, 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	dup := mkObj(t, "a", 20, 0, importance.Constant{Level: 1})
	if _, err := u.Put(dup, 0); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate Put err = %v, want ErrDuplicateID", err)
	}
	if u.Used() != 10 {
		t.Errorf("duplicate Put changed usage: %d", u.Used())
	}
}

func TestPutNil(t *testing.T) {
	u := newUnit(t, 100, policy.TemporalImportance{})
	if _, err := u.Put(nil, 0); err == nil {
		t.Error("Put(nil) should fail")
	}
}

func TestPreemptionLifecycle(t *testing.T) {
	var evictions []Eviction
	var rejections []Rejection
	u := newUnit(t, 100, policy.TemporalImportance{},
		WithEvictionHook(func(e Eviction) { evictions = append(evictions, e) }),
		WithRejectionHook(func(r Rejection) { rejections = append(rejections, r) }),
	)

	// Fill with a low-importance object that wanes.
	low := mkObj(t, "low", 100, 0, importance.TwoStep{Plateau: 0.4, Persist: 10 * day, Wane: 10 * day})
	if _, err := u.Put(low, 0); err != nil {
		t.Fatalf("Put low: %v", err)
	}

	// An equal-importance arrival is rejected while low is at plateau.
	equal := mkObj(t, "equal", 50, 5*day, importance.Constant{Level: 0.4})
	d, err := u.Put(equal, 5*day)
	if err != nil || d.Admit {
		t.Fatalf("equal-importance Put = %+v, %v; want rejection", d, err)
	}
	if len(rejections) != 1 || rejections[0].Boundary != 0.4 || rejections[0].Reason != policy.ReasonFull {
		t.Errorf("rejections = %+v", rejections)
	}

	// A higher-importance arrival preempts.
	high := mkObj(t, "high", 80, 5*day, importance.Constant{Level: 0.9})
	d, err = u.Put(high, 5*day)
	if err != nil || !d.Admit {
		t.Fatalf("high Put = %+v, %v", d, err)
	}
	if len(evictions) != 1 {
		t.Fatalf("evictions = %+v, want one", evictions)
	}
	e := evictions[0]
	if e.Object.ID != "low" || e.Time != 5*day || e.LifetimeAchieved != 5*day ||
		e.Importance != 0.4 || e.PreemptedBy != "high" {
		t.Errorf("eviction record = %+v", e)
	}
	if u.Used() != 80 || u.Len() != 1 {
		t.Errorf("Used/Len = %d/%d, want 80/1", u.Used(), u.Len())
	}
	c := u.CountersSnapshot()
	if c.Admitted != 2 || c.Rejected != 1 || c.Evicted != 1 ||
		c.AdmittedBytes != 180 || c.EvictedBytes != 100 {
		t.Errorf("counters = %+v", c)
	}
}

func TestProbeDoesNotMutate(t *testing.T) {
	u := newUnit(t, 100, policy.TemporalImportance{})
	if _, err := u.Put(mkObj(t, "low", 100, 0, importance.Constant{Level: 0.3}), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	probe := mkObj(t, "probe", 50, 0, importance.Constant{Level: 0.8})
	d := u.Probe(probe, 0)
	if !d.Admit || d.HighestPreempted != 0.3 {
		t.Errorf("Probe = %+v, want admissible with boundary 0.3", d)
	}
	if u.Len() != 1 || u.Used() != 100 {
		t.Errorf("Probe mutated the unit: Len=%d Used=%d", u.Len(), u.Used())
	}
	if _, err := u.Get("low"); err != nil {
		t.Errorf("resident disappeared after Probe: %v", err)
	}
}

func TestDensityAt(t *testing.T) {
	u := newUnit(t, 1000, policy.TemporalImportance{})
	// 500 bytes at importance 1, 300 bytes waning, 200 bytes free.
	if _, err := u.Put(mkObj(t, "full", 500, 0, importance.Constant{Level: 1}), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	waning := importance.TwoStep{Plateau: 1, Persist: 10 * day, Wane: 10 * day}
	if _, err := u.Put(mkObj(t, "wane", 300, 0, waning), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got := u.DensityAt(0); got != 0.8 {
		t.Errorf("density at plateau = %v, want 0.8", got)
	}
	// At day 15 the waning object is at 0.5: density 0.5 + 0.15 = 0.65.
	if got := u.DensityAt(15 * day); got != 0.65 {
		t.Errorf("density mid-wane = %v, want 0.65", got)
	}
	// Past expiry the waning object contributes zero.
	if got := u.DensityAt(30 * day); got != 0.5 {
		t.Errorf("density after expiry = %v, want 0.5", got)
	}
}

func TestDensityEmptyUnit(t *testing.T) {
	u := newUnit(t, 1000, policy.TemporalImportance{})
	if got := u.DensityAt(0); got != 0 {
		t.Errorf("empty density = %v, want 0", got)
	}
}

func TestByteImportance(t *testing.T) {
	u := newUnit(t, 1000, policy.TemporalImportance{})
	if _, err := u.Put(mkObj(t, "a", 570, 0, importance.Constant{Level: 1}), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := u.Put(mkObj(t, "b", 430, 0, importance.Constant{Level: 0.5}), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	samples := u.ByteImportance(0)
	if len(samples) != 2 {
		t.Fatalf("samples = %v", samples)
	}
	total := samples[0].Weight + samples[1].Weight
	if total != 1000 {
		t.Errorf("total weight = %v, want 1000", total)
	}
}

func TestDropExpired(t *testing.T) {
	u := newUnit(t, 1000, policy.TemporalImportance{})
	if _, err := u.Put(mkObj(t, "short", 100, 0, importance.TwoStep{Plateau: 1, Persist: 5 * day, Wane: 0}), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := u.Put(mkObj(t, "long", 100, 0, importance.Constant{Level: 1}), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if n := u.DropExpired(3 * day); n != 0 {
		t.Errorf("DropExpired before expiry = %d, want 0", n)
	}
	if n := u.DropExpired(6 * day); n != 1 {
		t.Errorf("DropExpired after expiry = %d, want 1", n)
	}
	if _, err := u.Get("short"); !errors.Is(err, ErrNotFound) {
		t.Errorf("expired object still resident: %v", err)
	}
	if _, err := u.Get("long"); err != nil {
		t.Errorf("live object dropped: %v", err)
	}
}

func TestResidentsSortedSnapshot(t *testing.T) {
	u := newUnit(t, 1000, policy.TemporalImportance{})
	for _, id := range []string{"c", "a", "b"} {
		if _, err := u.Put(mkObj(t, id, 10, 0, importance.Constant{Level: 1}), 0); err != nil {
			t.Fatalf("Put %s: %v", id, err)
		}
	}
	got := u.Residents()
	if len(got) != 3 || got[0].ID != "a" || got[1].ID != "b" || got[2].ID != "c" {
		t.Errorf("Residents = %v, want sorted [a b c]", got)
	}
}

func TestFIFOUnitNeverRejects(t *testing.T) {
	u := newUnit(t, 100, policy.FIFO{})
	for i := 0; i < 50; i++ {
		o := mkObj(t, fmt.Sprintf("o%02d", i), 40, time.Duration(i)*day, importance.Dirac{})
		d, err := u.Put(o, time.Duration(i)*day)
		if err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		if !d.Admit {
			t.Fatalf("FIFO rejected object %d: %+v", i, d)
		}
		if u.Used() > u.Capacity() {
			t.Fatalf("capacity exceeded: used %d", u.Used())
		}
	}
	if c := u.CountersSnapshot(); c.Rejected != 0 {
		t.Errorf("FIFO rejections = %d, want 0", c.Rejected)
	}
}

func TestAccountingIdentity(t *testing.T) {
	u := newUnit(t, 100, policy.TemporalImportance{})
	now := time.Duration(0)
	for i := 0; i < 200; i++ {
		now += 6 * time.Hour
		level := float64(i%10) / 10
		o := mkObj(t, fmt.Sprintf("o%03d", i), int64(10+i%40), now,
			importance.TwoStep{Plateau: level, Persist: 5 * day, Wane: 10 * day})
		if _, err := u.Put(o, now); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		if u.Used()+u.Free() != u.Capacity() {
			t.Fatalf("used+free != capacity at step %d", i)
		}
		if u.Used() < 0 || u.Free() < 0 {
			t.Fatalf("negative accounting at step %d", i)
		}
		if d := u.DensityAt(now); d < 0 || d > 1 {
			t.Fatalf("density out of range at step %d: %v", i, d)
		}
	}
	c := u.CountersSnapshot()
	if c.Admitted+c.Rejected != 200 {
		t.Errorf("admitted %d + rejected %d != 200", c.Admitted, c.Rejected)
	}
}
