package store

// Engine shards one node's byte budget over N independent Units so admission
// on a multi-core box contends on N locks instead of one. Each shard owns a
// slice of the capacity and its own resident set; the Engine routes object
// IDs to shards and re-merges the per-shard measurement surfaces (density,
// importance boundary, byte-importance samples) into the node-level view the
// server, status JSON and gossip advertisements consume. The paper's
// importance boundary is a per-partition signal that aggregates upward: a
// node's boundary is the cheapest of its shards' boundaries, exactly the
// quantity Section 5.3 placement minimizes across units -- the Engine just
// applies the same heuristic one level down.
//
// An Engine of one shard is observably a bare Unit (engine_test.go holds it
// to that); nothing below special-cases the count.

import (
	"errors"
	"fmt"
	"time"

	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/telemetry"
)

// EngineConfig sizes an Engine.
type EngineConfig struct {
	// Shards is the number of in-process shards (0 means 1).
	Shards int
	// Capacity is the node's total byte budget, split evenly over shards.
	Capacity int64
	// Policy is the admission policy, shared by every shard.
	Policy policy.Policy
}

// Engine errors.
var (
	// ErrBadShards reports a negative shard count or a capacity too small
	// to give every shard at least one byte.
	ErrBadShards = errors.New("store: shard count must be >= 1 and <= capacity")
)

// Engine routes object IDs over a fixed set of Unit shards and presents the
// merged node-level view. The shard set is immutable after NewEngine; all
// mutability lives in the Units, so the Engine itself needs no lock.
type Engine struct {
	shards   []*Unit
	capacity int64
	pol      policy.Policy
}

// NewEngine builds an engine of cfg.Shards units splitting cfg.Capacity.
// shardOpts, when non-nil, supplies per-shard Unit options (the server uses
// it to bind each shard's eviction hook to that shard's open mutation); it is invoked
// once per shard index.
func NewEngine(cfg EngineConfig, shardOpts func(shard int) []Option) (*Engine, error) {
	n := cfg.Shards
	if n == 0 {
		n = 1
	}
	if n < 0 || int64(n) > cfg.Capacity {
		return nil, fmt.Errorf("%w: %d shards over %d bytes", ErrBadShards, n, cfg.Capacity)
	}
	e := &Engine{
		shards:   make([]*Unit, n),
		capacity: cfg.Capacity,
		pol:      cfg.Policy,
	}
	base, rem := cfg.Capacity/int64(n), cfg.Capacity%int64(n)
	for i := range e.shards {
		capacity := base
		if int64(i) < rem {
			capacity++
		}
		opts := []Option{WithName(fmt.Sprintf("shard-%03d", i))}
		if shardOpts != nil {
			opts = append(opts, shardOpts(i)...)
		}
		u, err := New(capacity, cfg.Policy, opts...)
		if err != nil {
			return nil, err
		}
		e.shards[i] = u
	}
	return e, nil
}

// NumShards returns the shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// Shard returns shard i's Unit.
func (e *Engine) Shard(i int) *Unit { return e.shards[i] }

// Policy returns the shared admission policy.
func (e *Engine) Policy() policy.Policy { return e.pol }

// Capacity returns the node's total byte budget.
func (e *Engine) Capacity() int64 { return e.capacity }

// shardHash is fnv-64a over the ID bytes, inlined to keep routing
// allocation-free on the put hot path.
func shardHash(id object.ID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return h
}

// Home returns the shard index owning the ID: fnv-64a mod shard count. It is
// a pure function of the ID and the shard count, so the same key routes to
// the same shard across restarts and across processes.
func (e *Engine) Home(id object.ID) int {
	return int(shardHash(id) % uint64(len(e.shards)))
}

// Place chooses the shard a new object is admitted to: its ID's home shard.
func (e *Engine) Place(o *object.Object, _ time.Duration) int {
	return e.Home(o.ID)
}

// ProbeBest plans admission of a hypothetical object against every shard
// without mutating anything and returns the most favorable decision: the
// admitting shard preempting the lowest importance, or -- when no shard
// admits -- the rejection with the lowest boundary. It answers the node
// -level PROBE question ("what would it cost to store this here?") the
// Section 5.3 placement asks, before the object's real ID decides its
// shard.
func (e *Engine) ProbeBest(o *object.Object, now time.Duration) policy.Decision {
	best := e.shards[0].Probe(o, now)
	for _, u := range e.shards[1:] {
		d := u.Probe(o, now)
		if (d.Admit && !best.Admit) ||
			(d.Admit == best.Admit && d.HighestPreempted < best.HighestPreempted) {
			best = d
		}
	}
	return best
}

// Locate returns the ID's home shard and whether the ID is resident there.
func (e *Engine) Locate(id object.ID) (shard int, resident bool) {
	home := e.Home(id)
	_, err := e.shards[home].Get(id)
	return home, err == nil
}

// Get returns the resident object with the given ID from its home shard.
func (e *Engine) Get(id object.ID) (*object.Object, error) {
	return e.shards[e.Home(id)].Get(id)
}

// Used returns the allocated bytes summed over shards.
func (e *Engine) Used() int64 {
	var used int64
	for _, u := range e.shards {
		used += u.Used()
	}
	return used
}

// Free returns the unallocated bytes summed over shards.
func (e *Engine) Free() int64 {
	var free int64
	for _, u := range e.shards {
		free += u.Free()
	}
	return free
}

// Len returns the resident object count summed over shards.
func (e *Engine) Len() int {
	n := 0
	for _, u := range e.shards {
		n += u.Len()
	}
	return n
}

// CountersSnapshot returns the activity counters summed over shards.
func (e *Engine) CountersSnapshot() Counters {
	var c Counters
	for _, u := range e.shards {
		s := u.CountersSnapshot()
		c.Admitted += s.Admitted
		c.Rejected += s.Rejected
		c.Evicted += s.Evicted
		c.Deleted += s.Deleted
		c.AdmittedBytes += s.AdmittedBytes
		c.EvictedBytes += s.EvictedBytes
	}
	return c
}

// DensityAt returns the node-level storage importance density: every stored
// byte scaled by its current importance over the TOTAL capacity, identical
// to the unsharded definition because density is capacity-weighted.
func (e *Engine) DensityAt(now time.Duration) float64 {
	weighted := 0.0
	for _, u := range e.shards {
		weighted += u.DensityAt(now) * float64(u.Capacity())
	}
	return weighted / float64(e.capacity)
}

// SampleAt captures the merged node-level density sample: density is the
// capacity-weighted merge, usage the sum, and the boundary the cheapest
// shard boundary -- zero while any shard still has free bytes, since an
// arrival routed there pays no preemption.
func (e *Engine) SampleAt(now time.Duration) telemetry.DensitySample {
	merged := telemetry.DensitySample{At: now}
	weighted := 0.0
	anyRoom := false
	haveBoundary := false
	for _, u := range e.shards {
		s := u.SampleAt(now)
		weighted += s.Density * float64(u.Capacity())
		merged.Used += s.Used
		if s.Boundary == 0 {
			// A shard with room (or no residents) keeps the node boundary
			// at zero regardless of its siblings.
			anyRoom = true
			continue
		}
		if !haveBoundary || s.Boundary < merged.Boundary {
			merged.Boundary, haveBoundary = s.Boundary, true
		}
	}
	if anyRoom {
		merged.Boundary = 0
	}
	merged.Density = weighted / float64(e.capacity)
	return merged
}

// BoundaryAt returns the merged importance boundary (see SampleAt).
func (e *Engine) BoundaryAt(now time.Duration) float64 {
	return e.SampleAt(now).Boundary
}

// Residents returns a snapshot of every shard's residents merged and sorted
// by ID, matching the unsharded Residents contract.
func (e *Engine) Residents() []*object.Object {
	var out []*object.Object
	for _, u := range e.shards {
		out = u.appendResidents(out)
	}
	sortByID(out)
	return out
}
