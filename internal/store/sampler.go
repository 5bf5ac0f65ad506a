package store

import (
	"time"

	"besteffs/internal/telemetry"
)

// SampleAt captures the unit's density, usage and importance boundary in
// one lock pass -- the sampling primitive behind WithDensitySampling and
// the /metrics gauges.
func (u *Unit) SampleAt(now time.Duration) telemetry.DensitySample {
	u.mu.Lock()
	defer u.mu.Unlock()
	weighted := 0.0
	minImp, haveMin := 0.0, false
	for _, o := range u.order {
		imp := o.ImportanceAt(now)
		weighted += float64(o.Size) * imp
		if !haveMin || imp < minImp {
			minImp, haveMin = imp, true
		}
	}
	boundary := 0.0
	if u.free <= 0 && haveMin {
		boundary = minImp
	}
	return telemetry.DensitySample{
		At:       now,
		Density:  weighted / float64(u.capacity),
		Used:     u.capacity - u.free,
		Boundary: boundary,
	}
}

// BoundaryAt returns the instantaneous importance boundary (see
// telemetry.DensitySample.Boundary).
func (u *Unit) BoundaryAt(now time.Duration) float64 {
	return u.SampleAt(now).Boundary
}
