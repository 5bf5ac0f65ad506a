// Package gossip computes cluster-wide aggregates without any central
// component, as Besteffs requires ("fully distributed with no centralized
// components", Section 4.1). Section 5.3's feedback signal -- the average
// storage importance density that tells capture units which annotations the
// cluster can honor -- is an average over thousands of nodes; this package
// provides the push-sum protocol (Kempe, Dobra, Gehrke) that lets every
// node learn that average by exchanging (value, weight) pairs with random
// overlay neighbors.
//
// Push-sum converges exponentially: after O(log n + log 1/eps) rounds every
// node's estimate value/weight is within eps of the true mean, and the
// invariant sum(values) = sum(initial values), sum(weights) = n holds at
// every round (mass conservation).
package gossip

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"besteffs/internal/overlay"
)

// Protocol errors.
var (
	// ErrNilGraph reports a missing overlay.
	ErrNilGraph = errors.New("gossip: nil overlay graph")
	// ErrNilRand reports a missing random source.
	ErrNilRand = errors.New("gossip: nil random source")
	// ErrSizeMismatch reports per-node values not matching the graph.
	ErrSizeMismatch = errors.New("gossip: values do not match graph size")
)

// State is one node's push-sum state.
type State struct {
	// Value is the running sum component.
	Value float64
	// Weight is the running weight component (starts at 1).
	Weight float64
}

// Estimate returns the node's current estimate of the mean.
func (s State) Estimate() float64 {
	if s.Weight == 0 {
		return 0
	}
	return s.Value / s.Weight
}

// Split is the sending half of a push-sum move: it halves the state in
// place and returns the half that goes on the wire. Whoever ends up holding
// the returned share -- the receiver, or this node again when the send
// fails -- Absorbs it, so mass is conserved.
func (s *State) Split() State {
	s.Value /= 2
	s.Weight /= 2
	return *s
}

// Absorb is the receiving half: it adds a share to the state.
func (s *State) Absorb(share State) {
	s.Value += share.Value
	s.Weight += share.Weight
}

// Averager runs synchronous push-sum rounds over an overlay graph. It is a
// simulation of the protocol for the simulated cluster; each round, every
// node halves its (value, weight) and sends one half to a uniformly random
// overlay neighbor, keeping the other half.
type Averager struct {
	graph  *overlay.Graph
	rng    *rand.Rand
	states []State
	rounds int
}

// NewAverager initializes the protocol with one starting value per node
// (the node's locally measured density).
func NewAverager(graph *overlay.Graph, values []float64, rng *rand.Rand) (*Averager, error) {
	if graph == nil {
		return nil, ErrNilGraph
	}
	if rng == nil {
		return nil, ErrNilRand
	}
	if len(values) != graph.Len() {
		return nil, fmt.Errorf("%w: %d values for %d nodes", ErrSizeMismatch, len(values), graph.Len())
	}
	states := make([]State, len(values))
	for i, v := range values {
		if v != v || math.IsInf(v, 0) {
			return nil, fmt.Errorf("gossip: bad value %v at node %d", v, i)
		}
		states[i] = State{Value: v, Weight: 1}
	}
	return &Averager{graph: graph, rng: rng, states: states}, nil
}

// Rounds returns the number of rounds run so far.
func (a *Averager) Rounds() int { return a.rounds }

// States returns a copy of the per-node states.
func (a *Averager) States() []State {
	return append([]State(nil), a.states...)
}

// Estimates returns every node's current estimate of the mean.
func (a *Averager) Estimates() []float64 {
	out := make([]float64, len(a.states))
	for i, s := range a.states {
		out[i] = s.Estimate()
	}
	return out
}

// Step runs one synchronous push-sum round: every node splits its state,
// keeps one half and sends the other to a uniformly random overlay neighbor
// (or to itself when it has none).
func (a *Averager) Step() error {
	next := make([]State, len(a.states))
	for i, s := range a.states {
		sent := s.Split()
		next[i].Absorb(s)
		nbrs, err := a.graph.Neighbors(i)
		if err != nil {
			return fmt.Errorf("gossip: %w", err)
		}
		target := i
		if len(nbrs) > 0 {
			target = nbrs[a.rng.Intn(len(nbrs))]
		}
		next[target].Absorb(sent)
	}
	a.states = next
	a.rounds++
	return nil
}

// Run steps until every node's estimate is within eps of every other's, or
// maxRounds elapse. It returns the number of rounds executed and whether
// the spread converged below eps.
func (a *Averager) Run(eps float64, maxRounds int) (int, bool, error) {
	if eps <= 0 {
		return 0, false, fmt.Errorf("gossip: eps must be positive, got %v", eps)
	}
	start := a.rounds
	for r := 0; r < maxRounds; r++ {
		if a.Spread() <= eps {
			return a.rounds - start, true, nil
		}
		if err := a.Step(); err != nil {
			return a.rounds - start, false, err
		}
	}
	return a.rounds - start, a.Spread() <= eps, nil
}

// Spread returns the max-min gap across node estimates: the protocol's
// disagreement measure.
func (a *Averager) Spread() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range a.states {
		e := s.Estimate()
		if e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	return hi - lo
}

// Mass returns the total (value, weight) across nodes; push-sum conserves
// both, so Mass is constant across rounds (a protocol invariant tests
// check).
func (a *Averager) Mass() (value, weight float64) {
	for _, s := range a.states {
		value += s.Value
		weight += s.Weight
	}
	return value, weight
}
