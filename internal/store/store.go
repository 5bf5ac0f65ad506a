// Package store implements a single Besteffs storage unit: a byte-capacity
// budget, the resident object set, policy-driven admission with preemption,
// and the measurement surface the paper's evaluation is built on -- the
// storage importance density (Section 5.1.2), byte-importance snapshots
// (Figure 7), achieved-lifetime records (Figures 3 and 9), importance at
// reclamation (Figure 10) and rejection counts (Figure 4).
//
// A Unit is safe for concurrent use; the network server and the
// single-threaded simulator share this implementation.
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/stats"
)

// Unit errors.
var (
	// ErrBadCapacity reports a non-positive capacity.
	ErrBadCapacity = errors.New("store: capacity must be positive")
	// ErrNilPolicy reports a missing policy.
	ErrNilPolicy = errors.New("store: nil policy")
	// ErrDuplicateID reports a Put of an ID that is already resident.
	// Besteffs objects are write-once; updates use new versioned IDs.
	ErrDuplicateID = errors.New("store: duplicate object ID")
	// ErrNotFound reports a lookup of an absent object.
	ErrNotFound = errors.New("store: object not found")
)

// Eviction records one reclaimed object. LifetimeAchieved is the paper's
// headline per-object metric: lifetimes are "measured when objects are
// evicted".
type Eviction struct {
	// Object is the evicted resident.
	Object *object.Object
	// Time is the virtual time of the eviction.
	Time time.Duration
	// LifetimeAchieved is Time minus the object's arrival.
	LifetimeAchieved time.Duration
	// Importance is the object's current importance when reclaimed
	// (Figure 10).
	Importance float64
	// PreemptedBy names the incoming object that forced the eviction;
	// empty for explicit deletes.
	PreemptedBy object.ID
}

// Rejection records one object the unit was full for (Figure 4).
type Rejection struct {
	// Object is the rejected arrival.
	Object *object.Object
	// Time is the virtual time of the attempt.
	Time time.Duration
	// Boundary is the importance level that blocked admission: the
	// cheapest victim the plan would have needed.
	Boundary float64
	// Reason is the policy's rejection reason.
	Reason policy.Reason
}

// Counters aggregates unit activity.
type Counters struct {
	Admitted      int64 `json:"admitted"`
	Rejected      int64 `json:"rejected"`
	Evicted       int64 `json:"evicted"`
	Deleted       int64 `json:"deleted"`
	AdmittedBytes int64 `json:"admitted_bytes"`
	EvictedBytes  int64 `json:"evicted_bytes"`
}

// Unit is one storage unit.
type Unit struct {
	name     string
	capacity int64
	pol      policy.Policy

	onEvict  func(Eviction)
	onReject func(Rejection)
	onAdmit  func(*object.Object, time.Duration)

	mu        sync.Mutex
	free      int64
	residents map[object.ID]int // ID -> the resident's slot in order
	order     []*object.Object  // unordered compact slice of residents
	counters  Counters
}

// Option configures a Unit.
type Option func(*Unit)

// WithName sets a human-readable unit name for reports.
func WithName(name string) Option {
	return func(u *Unit) { u.name = name }
}

// WithEvictionHook installs a callback invoked for every eviction, after
// the unit's state is updated but while the unit lock is held; hooks must
// not call back into the Unit.
func WithEvictionHook(fn func(Eviction)) Option {
	return func(u *Unit) { u.onEvict = fn }
}

// WithRejectionHook installs a callback invoked for every rejection under
// the same constraints as WithEvictionHook.
func WithRejectionHook(fn func(Rejection)) Option {
	return func(u *Unit) { u.onReject = fn }
}

// WithAdmissionHook installs a callback invoked for every admission under
// the same constraints as WithEvictionHook.
func WithAdmissionHook(fn func(*object.Object, time.Duration)) Option {
	return func(u *Unit) { u.onAdmit = fn }
}

// New builds a unit of the given byte capacity governed by the policy.
func New(capacity int64, pol policy.Policy, opts ...Option) (*Unit, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadCapacity, capacity)
	}
	if pol == nil {
		return nil, ErrNilPolicy
	}
	u := &Unit{
		name:      "unit",
		capacity:  capacity,
		pol:       pol,
		free:      capacity,
		residents: make(map[object.ID]int),
	}
	for _, opt := range opts {
		opt(u)
	}
	return u, nil
}

// Name returns the unit's name.
func (u *Unit) Name() string { return u.name }

// Capacity returns the unit's total byte capacity.
func (u *Unit) Capacity() int64 { return u.capacity }

// Free returns the currently unallocated bytes.
func (u *Unit) Free() int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.free
}

// Used returns the currently allocated bytes.
func (u *Unit) Used() int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.capacity - u.free
}

// Len returns the number of resident objects.
func (u *Unit) Len() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.order)
}

// CountersSnapshot returns a copy of the activity counters.
func (u *Unit) CountersSnapshot() Counters {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.counters
}

// viewLocked builds a policy view over the LIVE resident slice -- no copy.
// Policies borrow Residents read-only for the duration of Plan (the
// policy.View contract), and every caller holds u.mu across the Plan call,
// so the slice cannot change underneath the policy: admission is O(1) when
// free space suffices, and one allocation-free pass over the slice otherwise.
func (u *Unit) viewLocked() policy.View {
	return policy.View{
		Capacity:  u.capacity,
		Free:      u.free,
		Residents: u.order,
	}
}

// Put offers an object to the unit at virtual time now: a PutBatch group of
// one, so every caller runs the daemon's admission transaction. On admission
// the returned decision lists the evicted victims; on rejection Admit is
// false and Reason explains why. Put fails with ErrDuplicateID if the ID is
// already resident.
func (u *Unit) Put(o *object.Object, now time.Duration) (policy.Decision, error) {
	r := u.PutBatch([]*object.Object{o}, now)[0]
	return r.Decision, r.Err
}

// BatchOutcome is the per-object result of PutBatch: the admission plan
// that was executed, or the per-object error that kept the object out of
// planning (nil object, duplicate ID).
type BatchOutcome struct {
	// Decision is the executed admission plan; zero when Err is set.
	Decision policy.Decision
	// Err reports a per-object failure. A failed object never fails the
	// group: its neighbours are planned as if it were absent.
	Err error
}

// PutBatch offers a group of objects for storage under ONE lock acquisition
// and ONE policy view snapshot, instead of N locked re-plans. Group
// semantics come from policy.PlanGroup: members never preempt each other,
// and no resident is evicted twice. Eviction, rejection and admission hooks
// fire exactly as they would for the equivalent sequence of Puts.
func (u *Unit) PutBatch(objs []*object.Object, now time.Duration) []BatchOutcome {
	out := make([]BatchOutcome, len(objs))
	u.mu.Lock()
	defer u.mu.Unlock()
	// Validate per object: duplicates (already resident, or repeated within
	// the batch) and nils fail individually, never the group.
	seen := make(map[object.ID]bool, len(objs))
	plan := make([]*object.Object, len(objs))
	for k, o := range objs {
		switch {
		case o == nil:
			out[k].Err = errors.New("store: nil object")
		case u.residentLocked(o.ID) != nil:
			out[k].Err = fmt.Errorf("%w: %s", ErrDuplicateID, o.ID)
		case seen[o.ID]:
			out[k].Err = fmt.Errorf("%w: %s (earlier in batch)", ErrDuplicateID, o.ID)
		default:
			seen[o.ID] = true
			plan[k] = o
		}
	}
	decisions := policy.PlanGroup(u.pol, u.viewLocked(), plan, now)
	for k, o := range plan {
		if o == nil {
			continue
		}
		d := decisions[k]
		out[k].Decision = d
		if !d.Admit {
			u.counters.Rejected++
			if u.onReject != nil {
				u.onReject(Rejection{Object: o, Time: now, Boundary: d.HighestPreempted, Reason: d.Reason})
			}
			continue
		}
		for _, victim := range d.Victims {
			u.evictLocked(victim, now, o.ID)
		}
		u.admitLocked(o, now)
	}
	return out
}

// ErrOverCapacity reports a Restore that would exceed the unit's capacity.
var ErrOverCapacity = errors.New("store: restore exceeds capacity")

// Restore inserts an object unconditionally, bypassing the admission
// policy and all hooks. It exists for journal replay, where the admission
// already happened in a previous process and the history guarantees the
// object fits. Restore fails on a duplicate ID or insufficient free space.
func (u *Unit) Restore(o *object.Object) error {
	if o == nil {
		return errors.New("store: nil object")
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if _, ok := u.residents[o.ID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateID, o.ID)
	}
	if o.Size > u.free {
		return fmt.Errorf("%w: %s needs %d, %d free", ErrOverCapacity, o.ID, o.Size, u.free)
	}
	u.insertLocked(o)
	return nil
}

// Remove unlinks an object without hooks or counters, for journal replay of
// recorded deletes and evictions.
func (u *Unit) Remove(id object.ID) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	o := u.residentLocked(id)
	if o == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	u.removeLocked(o)
	return nil
}

// Probe plans admission of a hypothetical object without mutating the unit.
// It returns the policy decision, whose HighestPreempted field is the
// importance boundary distributed placement minimizes across units.
func (u *Unit) Probe(o *object.Object, now time.Duration) policy.Decision {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.pol.Plan(u.viewLocked(), o, now)
}

// Get returns the resident object with the given ID.
func (u *Unit) Get(id object.ID) (*object.Object, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	o := u.residentLocked(id)
	if o == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return o, nil
}

// Delete explicitly removes an object (the content creator's prerogative;
// no eviction record is produced).
func (u *Unit) Delete(id object.ID) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	o := u.residentLocked(id)
	if o == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	u.removeLocked(o)
	u.counters.Deleted++
	return nil
}

// DropExpired reclaims every resident whose importance has reached zero.
// The system never promises availability past expiry, but absent pressure
// expired objects linger; DropExpired is the maintenance sweep for callers
// that want the space back eagerly. It returns the number of objects
// reclaimed.
func (u *Unit) DropExpired(now time.Duration) int {
	u.mu.Lock()
	defer u.mu.Unlock()
	var victims []*object.Object
	for _, o := range u.order {
		if o.Expired(now) {
			victims = append(victims, o)
		}
	}
	for _, o := range victims {
		u.evictLocked(o, now, "")
	}
	return len(victims)
}

// evictLocked removes a resident and records the eviction. Defensive: a victim
// the planner names twice, or that is not resident, must not corrupt accounting.
func (u *Unit) evictLocked(o *object.Object, now time.Duration, by object.ID) {
	if !u.removeLocked(o) {
		return
	}
	u.counters.Evicted++
	u.counters.EvictedBytes += o.Size
	if u.onEvict != nil {
		u.onEvict(Eviction{
			Object:           o,
			Time:             now,
			LifetimeAchieved: o.Age(now),
			Importance:       o.ImportanceAt(now),
			PreemptedBy:      by,
		})
	}
}

// residentLocked returns the resident with the given ID, or nil.
func (u *Unit) residentLocked(id object.ID) *object.Object {
	if slot, ok := u.residents[id]; ok {
		return u.order[slot]
	}
	return nil
}

// insertLocked links o into the resident set and takes its bytes.
func (u *Unit) insertLocked(o *object.Object) {
	u.residents[o.ID] = len(u.order)
	u.order = append(u.order, o)
	u.free -= o.Size
}

// admitLocked inserts an object the policy admitted and records it.
func (u *Unit) admitLocked(o *object.Object, now time.Duration) {
	u.insertLocked(o)
	u.counters.Admitted++
	u.counters.AdmittedBytes += o.Size
	if u.onAdmit != nil {
		u.onAdmit(o, now)
	}
}

// removeLocked unlinks o from the resident set and returns its bytes: the
// last resident moves into its slot. It reports false if o is not resident.
func (u *Unit) removeLocked(o *object.Object) bool {
	slot, ok := u.residents[o.ID]
	if !ok {
		return false
	}
	last := len(u.order) - 1
	delete(u.residents, o.ID)
	if slot != last {
		u.order[slot] = u.order[last]
		u.residents[u.order[slot].ID] = slot
	}
	u.order[last] = nil
	u.order = u.order[:last]
	u.free += o.Size
	return true
}

// Residents returns a snapshot of the resident objects, sorted by ID for
// deterministic iteration. Only the copy runs under the lock: residents are
// immutable once linked, so the sort needs no protection and a LIST or a
// checkpoint snapshot does not stall this unit's puts for its length.
func (u *Unit) Residents() []*object.Object {
	out := u.appendResidents(nil)
	sortByID(out)
	return out
}

// appendResidents appends the resident objects to dst in slot order.
func (u *Unit) appendResidents(dst []*object.Object) []*object.Object {
	u.mu.Lock()
	defer u.mu.Unlock()
	return append(dst, u.order...)
}

func sortByID(objs []*object.Object) {
	sort.Slice(objs, func(i, j int) bool { return objs[i].ID < objs[j].ID })
}

// DensityAt returns the instantaneous storage importance density at now:
// every stored byte scaled by its current importance, divided by the
// capacity. Expired objects and unallocated storage contribute zero, so the
// value is in [0, 1]. A density near one means the unit is full for all
// incoming objects; the gap between the density and an object's importance
// indicates the object's expected longevity (Section 5.1.2).
func (u *Unit) DensityAt(now time.Duration) float64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	weighted := 0.0
	for _, o := range u.order {
		weighted += o.WeightedImportance(now)
	}
	return weighted / float64(u.capacity)
}

// ByteImportance returns one weighted sample per resident (current
// importance weighted by size), the raw material of the Figure 7 CDF.
func (u *Unit) ByteImportance(now time.Duration) []stats.WeightedSample {
	u.mu.Lock()
	defer u.mu.Unlock()
	samples := make([]stats.WeightedSample, 0, len(u.order))
	for _, o := range u.order {
		samples = append(samples, stats.WeightedSample{
			Value:  o.ImportanceAt(now),
			Weight: float64(o.Size),
		})
	}
	return samples
}
