// Package cluster simulates the fully distributed Besteffs deployment of
// Section 5.3: thousands of storage units joined by a p2p overlay, with the
// paper's placement algorithm -- sample x units by random walk, probe each
// for the highest-importance object it would preempt, retry up to m rounds,
// and place on the unit with the lowest boundary. The boundary is
// deliberately not weighted by victim sizes, exactly as the paper
// specifies.
//
// The algorithm itself is internal/placement's Walk, the same function the
// live cluster client runs over real TCP sockets; this package is the
// simulation substrate driven by internal/sim.
package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"besteffs/internal/gossip"
	"besteffs/internal/object"
	"besteffs/internal/overlay"
	"besteffs/internal/placement"
	"besteffs/internal/policy"
	"besteffs/internal/store"
)

// Configuration errors.
var (
	// ErrBadSize reports a cluster with fewer than two units.
	ErrBadSize = errors.New("cluster: need at least two units")
	// ErrNilRand reports a missing random source.
	ErrNilRand = errors.New("cluster: nil random source")
	// ErrNoCandidates reports a placement that sampled no units.
	ErrNoCandidates = errors.New("cluster: overlay returned no candidates")
)

// Eviction is a unit-attributed eviction record.
type Eviction struct {
	// Unit is the index of the unit that evicted.
	Unit int
	store.Eviction
}

// Rejection records an object no sampled unit would admit.
type Rejection struct {
	// Object is the rejected arrival.
	Object *object.Object
	// Time is the virtual time of the attempt.
	Time time.Duration
	// BestBoundary is the lowest full-boundary observed across sampled
	// units: the importance the object would have needed to exceed.
	BestBoundary float64
}

// Placement describes where an object landed, or what stood in its way.
type Placement = placement.Result

// Cluster is a simulated Besteffs deployment. It is not safe for concurrent
// use; the discrete-event simulator is single-threaded. The networked
// implementation in internal/server handles concurrency per unit.
type Cluster struct {
	units []*store.Unit
	graph *overlay.Graph
	rng   *rand.Rand

	sampleSize int
	maxTries   int
	walkLength int

	pol policy.Policy

	onEvict  func(Eviction)
	onReject func(Rejection)

	placements, rejections, replacements int64
}

// Option configures a Cluster.
type Option func(*Cluster)

// WithSampleSize sets x, the units sampled per round (default 5).
func WithSampleSize(x int) Option {
	return func(c *Cluster) { c.sampleSize = x }
}

// WithMaxTries sets m, the maximum sampling rounds (default 3).
func WithMaxTries(m int) Option {
	return func(c *Cluster) { c.maxTries = m }
}

// WithWalkLength sets the random-walk length per sample (default 8).
func WithWalkLength(steps int) Option {
	return func(c *Cluster) { c.walkLength = steps }
}

// WithEvictionHook installs a cluster-wide eviction callback.
func WithEvictionHook(fn func(Eviction)) Option {
	return func(c *Cluster) { c.onEvict = fn }
}

// WithRejectionHook installs a callback for cluster-wide rejections (no
// sampled unit admitted the object).
func WithRejectionHook(fn func(Rejection)) Option {
	return func(c *Cluster) { c.onReject = fn }
}

// New builds a cluster of n units of the given capacity under the policy,
// joined by a random overlay of the given degree. Randomness (topology,
// walks, origin choice) comes from rng.
func New(n int, capacity int64, pol policy.Policy, degree int, rng *rand.Rand, opts ...Option) (*Cluster, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: %d", ErrBadSize, n)
	}
	if rng == nil {
		return nil, ErrNilRand
	}
	c := &Cluster{
		rng:        rng,
		sampleSize: 5,
		maxTries:   3,
		walkLength: 8,
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.sampleSize < 1 || c.maxTries < 1 || c.walkLength < 1 {
		return nil, fmt.Errorf("cluster: bad parameters x=%d m=%d walk=%d",
			c.sampleSize, c.maxTries, c.walkLength)
	}
	if degree >= n {
		// Small clusters degrade to a near-complete overlay.
		degree = n - 1
	}
	graph, err := overlay.NewRandomRegular(n, degree, rng)
	if err != nil {
		return nil, fmt.Errorf("cluster: build overlay: %w", err)
	}
	c.graph = graph
	c.pol = pol
	c.units = make([]*store.Unit, n)
	for i := 0; i < n; i++ {
		u, err := c.makeUnit(i, capacity)
		if err != nil {
			return nil, err
		}
		c.units[i] = u
	}
	return c, nil
}

// makeUnit builds one hook-wired unit for slot i.
func (c *Cluster) makeUnit(i int, capacity int64) (*store.Unit, error) {
	unitOpts := []store.Option{store.WithName(fmt.Sprintf("unit-%04d", i))}
	if c.onEvict != nil {
		unitOpts = append(unitOpts, store.WithEvictionHook(func(e store.Eviction) {
			c.onEvict(Eviction{Unit: i, Eviction: e})
		}))
	}
	u, err := store.New(capacity, c.pol, unitOpts...)
	if err != nil {
		return nil, fmt.Errorf("cluster: build unit %d: %w", i, err)
	}
	return u, nil
}

// ReplaceUnit swaps slot i for a fresh, empty unit of the given capacity,
// modeling the hardware churn the paper anticipates but does not simulate:
// "We expect the university to continuously replace older desktops with
// newer desktops that will likely host larger disks. ... Our simulator does
// not implement the interplay of growing storage and increasing space
// requirements" (Section 5.3). Objects on the old desktop are lost --
// Besteffs stores single copies and promises nothing more -- and the
// replacement joins the overlay in the same position.
func (c *Cluster) ReplaceUnit(i int, capacity int64) error {
	if i < 0 || i >= len(c.units) {
		return fmt.Errorf("cluster: unit %d out of range", i)
	}
	u, err := c.makeUnit(i, capacity)
	if err != nil {
		return err
	}
	c.units[i] = u
	c.replacements++
	return nil
}

// Replacements returns how many units have been swapped by churn.
func (c *Cluster) Replacements() int64 { return c.replacements }

// Len returns the number of units.
func (c *Cluster) Len() int { return len(c.units) }

// Unit returns unit i for inspection.
func (c *Cluster) Unit(i int) (*store.Unit, error) {
	if i < 0 || i >= len(c.units) {
		return nil, fmt.Errorf("cluster: unit %d out of range", i)
	}
	return c.units[i], nil
}

// Graph returns the overlay.
func (c *Cluster) Graph() *overlay.Graph { return c.graph }

// Placements and Rejections return the running totals.
func (c *Cluster) Placements() int64 { return c.placements }

// Rejections returns the number of cluster-wide rejections.
func (c *Cluster) Rejections() int64 { return c.rejections }

// Place runs the Section 5.3 placement for one object (placement.Walk) over
// this cluster: each round samples x units by random walks from one origin,
// a probe plans admission on the in-memory unit, a commit stores there. It
// returns the placement, or ok=false if every sampled unit was full for the
// object.
func (c *Cluster) Place(o *object.Object, now time.Duration) (Placement, bool, error) {
	origin := c.rng.Intn(len(c.units))
	res, err := placement.Walk(c.maxTries,
		func(int) ([]int, error) {
			candidates, err := c.graph.SampleViaWalks(c.rng, origin, c.sampleSize, c.walkLength)
			if err != nil {
				return nil, fmt.Errorf("cluster: sample units: %w", err)
			}
			if len(candidates) == 0 {
				return nil, ErrNoCandidates
			}
			return candidates, nil
		},
		func(unit int) (placement.Answer, bool, error) {
			d := c.units[unit].Probe(o, now)
			return placement.Answer{Admit: d.Admit, Boundary: d.HighestPreempted}, true, nil
		},
		func(unit int) (bool, error) {
			d, err := c.units[unit].Put(o, now)
			if err != nil {
				return false, fmt.Errorf("cluster: place %s on unit %d: %w", o.ID, unit, err)
			}
			return d.Admit, nil
		})
	if err != nil {
		return res, false, err
	}
	if res.Unit < 0 {
		c.rejections++
		if c.onReject != nil {
			c.onReject(Rejection{Object: o, Time: now, BestBoundary: res.Boundary})
		}
		return res, false, nil
	}
	c.placements++
	return res, true, nil
}

// Offer implements workload.Sink: placement failures (cluster full) are
// measurements, not errors.
func (c *Cluster) Offer(o *object.Object, now time.Duration) error {
	_, _, err := c.Place(o, now)
	return err
}

// AverageDensity returns the mean storage importance density across units:
// the cluster-wide annotation-feedback signal of Section 5.3.
func (c *Cluster) AverageDensity(now time.Duration) float64 {
	total := 0.0
	for _, u := range c.units {
		total += u.DensityAt(now)
	}
	return total / float64(len(c.units))
}

// DensityEstimate is the outcome of a distributed density aggregation.
type DensityEstimate struct {
	// TrueMean is the exact cluster average (the omniscient value a
	// simulation can compute directly).
	TrueMean float64
	// NodeEstimates are the per-node push-sum estimates after the run;
	// in a real deployment each capture unit would read only its own.
	NodeEstimates []float64
	// Rounds is the number of gossip rounds executed.
	Rounds int
	// Converged reports whether the spread fell below the target.
	Converged bool
}

// EstimateDensity computes the cluster-wide average storage importance
// density the way a real Besteffs deployment must: with no central
// component, by push-sum gossip over the p2p overlay. Section 5.3's
// annotation feedback ("average importance density gives a good indication
// for the capture units to choose the appropriate lifetime parameters")
// reaches every node this way.
func (c *Cluster) EstimateDensity(now time.Duration, eps float64, maxRounds int) (DensityEstimate, error) {
	values := make([]float64, len(c.units))
	var sum float64
	for i, u := range c.units {
		values[i] = u.DensityAt(now)
		sum += values[i]
	}
	avg, err := gossip.NewAverager(c.graph, values, c.rng)
	if err != nil {
		return DensityEstimate{}, fmt.Errorf("cluster: estimate density: %w", err)
	}
	rounds, converged, err := avg.Run(eps, maxRounds)
	if err != nil {
		return DensityEstimate{}, fmt.Errorf("cluster: estimate density: %w", err)
	}
	return DensityEstimate{
		TrueMean:      sum / float64(len(c.units)),
		NodeEstimates: avg.Estimates(),
		Rounds:        rounds,
		Converged:     converged,
	}, nil
}
