// Package importance implements the temporal importance abstraction from
// "Automated Storage Reclamation Using Temporal Importance Annotations"
// (Chandra, Gehani, Yu; ICDCS 2007).
//
// A temporal importance function L(t) is a monotonically decreasing function
// of an object's age t with values in [0, 1]. The current importance of an
// object describes its eviction priority: objects with higher current
// importance can preempt objects with lower current importance, objects at
// importance one are not preemptible, and objects at importance zero may be
// freely replaced by any other object.
//
// The package provides the function families discussed in the paper --
// the two-step function (constant plateau followed by a linear wane), the
// constant no-expiration function of traditional storage, the Dirac function
// of cache-like systems such as Palimpsest, plus linear, exponential and
// general piecewise-linear decays -- together with validation, a compact
// binary codec for the wire protocol and a human-readable spec syntax for
// command-line tools.
package importance

import (
	"errors"
	"fmt"
	"time"
)

// Day is the length of a simulated day. The paper's simulations run at
// minute granularity over five to ten simulated years.
const Day = 24 * time.Hour

// Function is a monotonically decreasing temporal importance function.
//
// Implementations must guarantee that At never returns a value outside
// [0, 1] and never returns a value greater than the value returned for any
// smaller age (monotonicity). Negative ages are treated as age zero.
type Function interface {
	// At returns the importance at the given object age.
	At(age time.Duration) float64

	// ExpireAge returns the smallest age at which the importance reaches
	// zero. The second return value reports whether the function expires
	// at all; a function that never reaches zero returns (0, false).
	ExpireAge() (time.Duration, bool)
}

// Validation and construction errors.
var (
	// ErrOutOfRange reports an importance level outside [0, 1].
	ErrOutOfRange = errors.New("importance: level out of range [0, 1]")
	// ErrNegativeDuration reports a negative persist, wane or expiry duration.
	ErrNegativeDuration = errors.New("importance: negative duration")
	// ErrNotMonotone reports a function that increases with age.
	ErrNotMonotone = errors.New("importance: function is not monotonically decreasing")
	// ErrEmpty reports a piecewise function with no points.
	ErrEmpty = errors.New("importance: piecewise function has no points")
	// ErrUnordered reports piecewise points whose ages are not strictly increasing.
	ErrUnordered = errors.New("importance: piecewise ages are not strictly increasing")
)

// clampAge maps negative ages to zero so that implementations can assume a
// non-negative age.
func clampAge(age time.Duration) time.Duration {
	if age < 0 {
		return 0
	}
	return age
}

// checkLevel validates that v is a usable importance level in [0, 1].
func checkLevel(v float64) error {
	if v != v { // NaN
		return fmt.Errorf("%w: NaN", ErrOutOfRange)
	}
	if v < 0 || v > 1 {
		return fmt.Errorf("%w: %v", ErrOutOfRange, v)
	}
	return nil
}

// Validate checks a function for the package invariants by sampling: values
// must stay within [0, 1] and must not increase with age. Concrete
// constructors already validate their parameters; Validate is useful for
// functions received from untrusted sources or built programmatically.
//
// Sampling cannot prove monotonicity in general, but the probe schedule is
// dense around the function's expiry age, where all the families in this
// package change shape.
func Validate(f Function) error {
	if f == nil {
		return errors.New("importance: nil function")
	}
	horizon := 20 * 365 * Day
	if exp, ok := f.ExpireAge(); ok && exp > 0 {
		horizon = exp + exp/8
	}
	const probes = 256
	prev := f.At(0)
	if err := checkLevel(prev); err != nil {
		return fmt.Errorf("at age 0: %w", err)
	}
	for i := 1; i <= probes; i++ {
		age := time.Duration(int64(horizon) / probes * int64(i))
		v := f.At(age)
		if err := checkLevel(v); err != nil {
			return fmt.Errorf("at age %v: %w", age, err)
		}
		if v > prev {
			return fmt.Errorf("%w: %v at age %v exceeds earlier value %v", ErrNotMonotone, v, age, prev)
		}
		prev = v
	}
	if exp, ok := f.ExpireAge(); ok {
		if exp < 0 {
			return fmt.Errorf("expiry: %w: %v", ErrNegativeDuration, exp)
		}
		if v := f.At(exp); v != 0 {
			return fmt.Errorf("%w: value %v at declared expiry age %v", ErrNotMonotone, v, exp)
		}
	}
	return nil
}

// Expired reports whether the function has reached importance zero at the
// given age.
func Expired(f Function, age time.Duration) bool {
	return f.At(age) == 0
}

// Remaining returns the remaining lifetime at the given age: the time until
// the function expires. Functions that never expire report (0, false).
// Ages past expiry report a remaining lifetime of zero.
func Remaining(f Function, age time.Duration) (time.Duration, bool) {
	exp, ok := f.ExpireAge()
	if !ok {
		return 0, false
	}
	age = clampAge(age)
	if age >= exp {
		return 0, true
	}
	return exp - age, true
}
