package store

import (
	"errors"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// Forecasting exploits the determinism of temporal annotations: every
// resident's future importance is known exactly, so absent new arrivals
// the density trajectory is computable, not predicted. Section 5.1.3:
// "The application can decide at the outset the kinds of behavior it
// requires and whether the storage can provide such behavior." A creator
// can ask "when will the unit admit my object?" and schedule the write for
// that moment.

// ErrBadForecast reports invalid forecast parameters.
var ErrBadForecast = errors.New("store: bad forecast parameters")

// AdmissibleAt returns the earliest time in [now, now+horizon] at which an
// object of the given size and importance level would be admitted, assuming
// no further arrivals. The second return value is false if the unit stays
// full for the object across the whole horizon. The probe evaluates the
// policy against the aged resident set at each step.
func (u *Unit) AdmissibleAt(size int64, level float64, now, horizon, step time.Duration) (time.Duration, bool, error) {
	if horizon <= 0 || step <= 0 {
		return 0, false, ErrBadForecast
	}
	if size <= 0 || level < 0 || level > 1 {
		return 0, false, ErrBadForecast
	}
	probe, err := object.New("forecast-probe", size, now, importance.Constant{Level: level})
	if err != nil {
		return 0, false, err
	}
	for t := now; t <= now+horizon; t += step {
		// Re-arrive the probe at each instant so its importance is the
		// plateau level, not a decayed value.
		probe.Arrival = t
		if d := u.Probe(probe, t); d.Admit {
			return t, true, nil
		}
	}
	return 0, false, nil
}
