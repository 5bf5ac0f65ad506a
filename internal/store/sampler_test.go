package store

import (
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/telemetry"
)

func TestSampleAt(t *testing.T) {
	u, err := New(1000, policy.TemporalImportance{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	put := func(id object.ID, size int64, level float64) {
		t.Helper()
		o, err := object.New(id, size, 0, importance.Constant{Level: level})
		if err != nil {
			t.Fatalf("object.New: %v", err)
		}
		if d, err := u.Put(o, 0); err != nil || !d.Admit {
			t.Fatalf("Put %s: admit=%v err=%v", id, d.Admit, err)
		}
	}
	put("a", 400, 0.5)

	s := u.SampleAt(0)
	if s.Density != 0.2 { // 400 bytes at 0.5 over 1000
		t.Errorf("density = %v, want 0.2", s.Density)
	}
	if s.Used != 400 {
		t.Errorf("used = %d, want 400", s.Used)
	}
	if s.Boundary != 0 {
		t.Errorf("boundary = %v, want 0 while free space remains", s.Boundary)
	}

	// Fill the unit; the boundary becomes the cheapest resident's
	// current importance.
	put("b", 600, 0.8)
	s = u.SampleAt(0)
	if s.Used != 1000 {
		t.Errorf("used = %d, want 1000", s.Used)
	}
	if s.Boundary != 0.5 {
		t.Errorf("boundary = %v, want 0.5 (cheapest resident)", s.Boundary)
	}
	if got := u.BoundaryAt(0); got != 0.5 {
		t.Errorf("BoundaryAt = %v, want 0.5", got)
	}
}

func TestSampleAtTracksAging(t *testing.T) {
	u, err := New(1000, policy.TemporalImportance{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Linear decay from 1 to 0 over 10 days.
	o, err := object.New("a", 1000, 0, importance.Linear{Start: 1, Expire: 10 * importance.Day})
	if err != nil {
		t.Fatalf("object.New: %v", err)
	}
	if _, err := u.Put(o, 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s0 := u.SampleAt(0)
	s5 := u.SampleAt(5 * importance.Day)
	if s0.Density != 1 {
		t.Errorf("density at 0 = %v, want 1", s0.Density)
	}
	if s5.Density != 0.5 {
		t.Errorf("density at day 5 = %v, want 0.5", s5.Density)
	}
	if s5.Boundary != 0.5 {
		t.Errorf("boundary at day 5 = %v, want 0.5", s5.Boundary)
	}
}

// TestDensityRingWraps: a unit's density trajectory, held in a sample ring,
// keeps the most recent samples up to the ring's size, oldest first.
func TestDensityRingWraps(t *testing.T) {
	r := telemetry.NewSampleRing(3)
	if r.Len() != 0 {
		t.Fatalf("fresh ring: len=%d", r.Len())
	}
	for i := 1; i <= 5; i++ {
		r.Record(telemetry.DensitySample{At: time.Duration(i), Density: float64(i) / 10})
	}
	if r.Len() != 5 {
		t.Errorf("len = %d, want 5 recorded", r.Len())
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("samples = %d, want 3", len(got))
	}
	// Oldest first: samples 3, 4, 5 survive the wrap.
	for i, want := range []time.Duration{3, 4, 5} {
		if got[i].At != want {
			t.Errorf("sample %d at = %v, want %v (all: %+v)", i, got[i].At, want, got)
		}
	}
}

// TestDensityRingPartial: a ring not yet full holds every sample a unit's
// SampleAt produced, oldest first; a size of zero still keeps samples.
func TestDensityRingPartial(t *testing.T) {
	u, err := New(1000, policy.TemporalImportance{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r := telemetry.NewSampleRing(8)
	r.Record(u.SampleAt(1))
	r.Record(u.SampleAt(2))
	got := r.Snapshot()
	if len(got) != 2 || got[0].At != 1 || got[1].At != 2 {
		t.Errorf("samples = %+v", got)
	}
	tiny := telemetry.NewSampleRing(0)
	tiny.Record(telemetry.DensitySample{At: 9})
	if tiny.Len() != 1 || tiny.Snapshot()[0].At != 9 {
		t.Errorf("size-0 ring: len=%d samples=%+v", tiny.Len(), tiny.Snapshot())
	}
}
