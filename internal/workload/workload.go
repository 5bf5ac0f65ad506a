// Package workload generates the object arrival streams of the paper's
// three evaluation scenarios: the single-application ramp of Section 5.1,
// the single-instructor lecture capture of Section 5.2, and the
// university-wide capture of Section 5.3.
//
// Generators schedule arrival events on a sim.Engine and hand each arriving
// object to a Sink; single-unit experiments sink into a store.Unit, the
// distributed experiment sinks into the cluster placement algorithm. All
// randomness flows through an injected *rand.Rand, so a fixed seed
// reproduces a run bit-for-bit.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"besteffs/internal/object"
	"besteffs/internal/sim"
	"besteffs/internal/store"
)

// GB is a binary gigabyte.
const GB int64 = 1 << 30

// Sink consumes generated arrivals. Offer must not retain err-state between
// calls; generators keep offering subsequent objects regardless of
// rejections (a rejection is a measurement, not a failure).
type Sink interface {
	// Offer presents one arriving object at virtual time now.
	Offer(o *object.Object, now time.Duration) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(o *object.Object, now time.Duration) error

// Offer implements Sink.
func (f SinkFunc) Offer(o *object.Object, now time.Duration) error { return f(o, now) }

// UnitSink offers every arrival to a single storage unit. Policy decisions
// (admit, reject, evictions) surface through the unit's hooks.
type UnitSink struct {
	// Unit is the destination storage unit.
	Unit *store.Unit
}

var _ Sink = UnitSink{}

// Offer implements Sink by calling Unit.Put. Rejections are not errors;
// only protocol misuse (duplicate IDs) is.
func (s UnitSink) Offer(o *object.Object, now time.Duration) error {
	if _, err := s.Unit.Put(o, now); err != nil {
		return fmt.Errorf("workload: offer %s: %w", o.ID, err)
	}
	return nil
}

// Common configuration errors.
var (
	// ErrNilSink reports a generator without a destination.
	ErrNilSink = errors.New("workload: nil sink")
	// ErrNilEngine reports a generator without a simulation engine.
	ErrNilEngine = errors.New("workload: nil engine")
	// ErrNilRand reports a generator without a random source.
	ErrNilRand = errors.New("workload: nil random source")
)

// Arrival is one generated object offered to a sink, retained by generators
// that keep an arrival log for time-constant analysis.
type Arrival struct {
	// Time is the arrival's virtual time.
	Time time.Duration
	// Size is the object size in bytes.
	Size int64
}

// errCollector records failures that surface inside scheduled events, where
// there is no return path to the caller. Experiment runners check Err after
// the simulation completes; a non-nil value means the run is invalid
// (duplicate IDs or a broken sink), never a mere policy rejection.
type errCollector struct {
	err error
}

// record keeps the first error.
func (c *errCollector) record(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Err returns the first error recorded during event processing.
func (c *errCollector) Err() error { return c.err }

// checkCommon validates the plumbing every generator needs.
func checkCommon(eng *sim.Engine, sink Sink, rng *rand.Rand) error {
	if eng == nil {
		return ErrNilEngine
	}
	if sink == nil {
		return ErrNilSink
	}
	if rng == nil {
		return ErrNilRand
	}
	return nil
}
