package store

import (
	"sync"
	"time"
)

// DensitySample is one point on a unit's density trajectory: the live
// counterpart of the simulated density time series the paper's figures
// plot. An operator (or client library) watches the trajectory to predict
// the importance level at which the unit will "appear full".
type DensitySample struct {
	// At is the unit's virtual time of the sample.
	At time.Duration
	// Density is the storage importance density at that time (Section
	// 5.1.2): every stored byte scaled by its current importance, over
	// capacity.
	Density float64
	// Used is the allocated bytes at that time.
	Used int64
	// Boundary is the importance boundary at that time: the importance
	// level an arrival must exceed to claim the unit's next byte. Zero
	// while free space remains; the lowest current importance among
	// residents once the unit is full.
	Boundary float64
}

// SampleAt captures the unit's density, usage and importance boundary in
// one lock pass -- the sampling primitive behind WithDensitySampling and
// the /metrics gauges.
func (u *Unit) SampleAt(now time.Duration) DensitySample {
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
	return DensitySample{
		At:       now,
		Density:  weighted / float64(u.capacity),
		Used:     u.capacity - u.free,
		Boundary: boundary,
	}
}

// BoundaryAt returns the instantaneous importance boundary (see
// DensitySample.Boundary).
func (u *Unit) BoundaryAt(now time.Duration) float64 {
	return u.SampleAt(now).Boundary
}

// DensityRing is a fixed-capacity ring buffer of density samples, safe for
// concurrent use. Once full, each new sample displaces the oldest, so the
// ring always holds the most recent window of the trajectory.
type DensityRing struct {
	mu   sync.Mutex
	buf  []DensitySample
	next int
	full bool
}

// NewDensityRing returns a ring holding up to size samples (minimum 1).
func NewDensityRing(size int) *DensityRing {
	if size < 1 {
		size = 1
	}
	return &DensityRing{buf: make([]DensitySample, size)}
}

// Record appends one sample, displacing the oldest when full.
func (r *DensityRing) Record(s DensitySample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Len returns the number of recorded samples (at most the ring's capacity).
func (r *DensityRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Cap returns the ring's capacity. It takes no lock: the buf slice header is
// immutable after NewDensityRing.
func (r *DensityRing) Cap() int { return len(r.buf) }

// Samples returns the recorded window, oldest first.
func (r *DensityRing) Samples() []DensitySample {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]DensitySample(nil), r.buf[:r.next]...)
	}
	out := make([]DensitySample, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
