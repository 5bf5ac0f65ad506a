// Package object defines the storage object model of the Besteffs system.
//
// Objects are the unit of storage and reclamation: read-only, write-once
// blobs with versioned updates, described by the tuple (size, arrival time,
// temporal importance function) from Section 3 of the paper. The package is
// shared by the single-unit store, the distributed cluster, the simulator
// workloads and the network protocol.
package object

import (
	"errors"
	"fmt"
	"time"

	"besteffs/internal/importance"
)

// ID names an object. IDs are opaque, non-empty strings; workloads use
// hierarchical names such as "cs101/spring-0/lecture-12/v1".
type ID string

// Class coarsely groups objects by their creator, mirroring the paper's
// Section 5.2 scenario where university-operated cameras and student-created
// streams carry different importance annotations. A class is one byte, as
// the wire and the journal carry it.
type Class uint8

// Object classes.
const (
	// ClassGeneric marks objects outside the lecture scenarios.
	ClassGeneric Class = iota
	// ClassUniversity marks streams from university-maintained cameras
	// (importance 1.0 during the semester).
	ClassUniversity
	// ClassStudent marks student-created interpretation streams
	// (importance 0.5 during the semester).
	ClassStudent
)

// String returns a short lower-case class name.
func (c Class) String() string {
	switch c {
	case ClassGeneric:
		return "generic"
	case ClassUniversity:
		return "university"
	case ClassStudent:
		return "student"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Construction errors.
var (
	// ErrEmptyID reports an object without a name.
	ErrEmptyID = errors.New("object: empty ID")
	// ErrBadSize reports a non-positive object size.
	ErrBadSize = errors.New("object: size must be positive")
	// ErrNilImportance reports an object without an importance function.
	ErrNilImportance = errors.New("object: nil importance function")
)

// Object is a stored blob plus its reclamation metadata. Objects are
// immutable once created (Besteffs is write-once with versioned updates);
// treat all fields as read-only after New.
//
// A full node holds one Object per resident, so its layout is kept to 64
// bytes, the allocator's size class below 80: the owner, which most puts
// leave empty, is a pointer that is nil for the empty owner rather than a
// string header, and the version and class take the widths the wire and the
// journal encode them in.
type Object struct {
	// ID is the object's name. Versioned updates use distinct IDs.
	ID ID
	// Size is the payload size in bytes.
	Size int64
	// Arrival is the virtual time at which the object entered storage,
	// measured from the start of the simulation (or, for the live server,
	// from server start). Importance is evaluated at age now-Arrival.
	Arrival time.Duration
	// Importance is the temporal importance annotation supplied by the
	// content creator.
	Importance importance.Function
	// owner identifies the content creator (see Owner); nil when empty.
	owner *string
	// Version is the write-once version number, starting at 1.
	Version uint32
	// Class groups the object for per-class reporting.
	Class Class
}

// Owner returns the content creator's name, used for fairness analysis; ""
// when the creator gave none.
func (o *Object) Owner() string {
	if o.owner == nil {
		return ""
	}
	return *o.owner
}

// SetOwner records the content creator's name. The empty owner is held as
// no owner at all, at no cost.
func (o *Object) SetOwner(owner string) {
	if owner == "" {
		o.owner = nil
		return
	}
	// Not &owner: that would move the argument to the heap on every call,
	// the empty owner's too.
	p := new(string)
	*p = owner
	o.owner = p
}

// New validates and builds an object. The version defaults to 1.
func New(id ID, size int64, arrival time.Duration, imp importance.Function) (*Object, error) {
	if id == "" {
		return nil, ErrEmptyID
	}
	if size <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadSize, size)
	}
	if imp == nil {
		return nil, ErrNilImportance
	}
	return &Object{ID: id, Size: size, Arrival: arrival, Importance: imp, Version: 1}, nil
}

// Age returns the object's age at the given virtual time. Times before the
// arrival report age zero.
func (o *Object) Age(now time.Duration) time.Duration {
	if now < o.Arrival {
		return 0
	}
	return now - o.Arrival
}

// ImportanceAt returns the object's current importance at the given virtual
// time.
func (o *Object) ImportanceAt(now time.Duration) float64 {
	return o.Importance.At(o.Age(now))
}

// Expired reports whether the object's importance has reached zero at the
// given virtual time. The system makes no availability guarantee for
// expired objects, though they may linger absent storage pressure.
func (o *Object) Expired(now time.Duration) bool {
	return o.ImportanceAt(now) == 0
}

// ExpireTime returns the virtual time at which the object expires. Objects
// that never expire report (0, false).
func (o *Object) ExpireTime() (time.Duration, bool) {
	age, ok := o.Importance.ExpireAge()
	if !ok {
		return 0, false
	}
	return o.Arrival + age, true
}

// Remaining returns the object's remaining lifetime at the given virtual
// time; (0, false) if the object never expires.
func (o *Object) Remaining(now time.Duration) (time.Duration, bool) {
	return importance.Remaining(o.Importance, o.Age(now))
}

// WeightedImportance returns Size scaled by the current importance: the
// object's contribution to the numerator of the storage importance density.
func (o *Object) WeightedImportance(now time.Duration) float64 {
	return float64(o.Size) * o.ImportanceAt(now)
}

// String summarizes the object for logs and test failures.
func (o *Object) String() string {
	return fmt.Sprintf("%s(v%d, %dB, %s, arrived %s)", o.ID, o.Version, o.Size, o.Class, o.Arrival)
}
