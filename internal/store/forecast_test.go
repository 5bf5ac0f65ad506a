package store

import (
	"errors"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/policy"
)

func TestAdmissibleAt(t *testing.T) {
	u := newUnit(t, 1000, policy.TemporalImportance{})
	// Full of a plateau that starts waning at day 10 and expires day 20.
	if _, err := u.Put(mkObj(t, "blocker", 1000, 0,
		importance.TwoStep{Plateau: 0.9, Persist: 10 * day, Wane: 10 * day}), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}

	// A 0.5-level object is blocked now, admissible once the blocker
	// wanes below 0.5: at day 10 + (0.4/0.9)*10d ~ day 14.4; with a 1-day
	// step the first admissible probe lands on day 15.
	at, ok, err := u.AdmissibleAt(500, 0.5, 0, 30*day, day)
	if err != nil {
		t.Fatalf("AdmissibleAt: %v", err)
	}
	if !ok {
		t.Fatal("never admissible within horizon")
	}
	if at < 14*day || at > 16*day {
		t.Errorf("admissible at %v, want ~day 15", at)
	}
	// Confirm against the live probe at that instant.
	probe := mkObj(t, "confirm", 500, at, importance.Constant{Level: 0.5})
	if d := u.Probe(probe, at); !d.Admit {
		t.Error("live probe disagrees with AdmissibleAt")
	}

	// A 1.0-level object is admissible immediately (preempts 0.9).
	at, ok, err = u.AdmissibleAt(500, 1, 0, 30*day, day)
	if err != nil || !ok || at != 0 {
		t.Errorf("level-1 AdmissibleAt = %v, %v, %v; want now", at, ok, err)
	}

	// An equal-importance object stays blocked until the blocker starts
	// waning.
	at, ok, err = u.AdmissibleAt(500, 0.9, 0, 30*day, day)
	if err != nil || !ok {
		t.Fatalf("AdmissibleAt = %v, %v", ok, err)
	}
	if at < 10*day {
		t.Errorf("equal importance admissible at %v, want after the plateau", at)
	}
}

func TestAdmissibleAtNever(t *testing.T) {
	u := newUnit(t, 1000, policy.TemporalImportance{})
	if _, err := u.Put(mkObj(t, "pinned", 1000, 0, importance.Constant{Level: 1}), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	_, ok, err := u.AdmissibleAt(500, 0.5, 0, 60*day, day)
	if err != nil {
		t.Fatalf("AdmissibleAt: %v", err)
	}
	if ok {
		t.Error("admission against a pinned unit should never open up")
	}
}

func TestForecastValidation(t *testing.T) {
	u := newUnit(t, 1000, policy.TemporalImportance{})
	if _, _, err := u.AdmissibleAt(10, 0.5, 0, 0, day); !errors.Is(err, ErrBadForecast) {
		t.Errorf("zero horizon err = %v", err)
	}
	if _, _, err := u.AdmissibleAt(10, 0.5, 0, day, 0); !errors.Is(err, ErrBadForecast) {
		t.Errorf("zero step err = %v", err)
	}
	if _, _, err := u.AdmissibleAt(0, 0.5, 0, day, time.Hour); !errors.Is(err, ErrBadForecast) {
		t.Errorf("zero size err = %v", err)
	}
	if _, _, err := u.AdmissibleAt(10, 1.5, 0, day, time.Hour); !errors.Is(err, ErrBadForecast) {
		t.Errorf("bad level err = %v", err)
	}
}
