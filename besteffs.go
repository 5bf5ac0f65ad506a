// Package besteffs is the public API of the Besteffs reproduction: a
// storage system that reclaims space automatically using temporal
// importance annotations, after "Automated Storage Reclamation Using
// Temporal Importance Annotations" (Chandra, Gehani, Yu; ICDCS 2007).
//
// Content creators attach a monotonically decreasing importance function
// L(t) in [0, 1] to every object. Under storage pressure, an arriving
// object preempts residents of strictly lower current importance;
// importance-one residents are never preemptible and importance-zero
// residents are freely replaceable. The storage importance density -- each
// stored byte weighted by its current importance, over capacity --
// quantifies the importance level at which a store is full and is the
// feedback signal creators use to pick annotations.
//
// The package re-exports the stable surface of the internal packages:
//
//   - importance functions (TwoStep, Constant, Dirac, Linear, Exponential,
//     Piecewise) with validation, codecs and a CLI spec syntax;
//   - the storage-unit engine (Unit) with the temporal-importance,
//     Palimpsest-FIFO and traditional policies;
//   - the simulated distributed cluster (Cluster) running the paper's
//     sample-and-probe placement over a p2p overlay;
//   - the live TCP node (Server) and client (Client, ClusterClient)
//     speaking the Besteffs wire protocol.
//
// See examples/ for runnable walk-throughs and cmd/paperbench for the
// reproduction of every figure and table in the paper's evaluation.
package besteffs

import (
	"context"
	"math/rand"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/client"
	"besteffs/internal/cluster"
	"besteffs/internal/importance"
	"besteffs/internal/member"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/server"
	"besteffs/internal/store"
)

// Day is one simulated day, the natural unit of the paper's lifetimes.
const Day = importance.Day

// Importance functions (see the importance package for details).
type (
	// ImportanceFunc is a monotonically decreasing temporal importance
	// function L(t) with values in [0, 1].
	ImportanceFunc = importance.Function
	// TwoStep is the paper's two-piece importance function: a plateau
	// for Persist, then a linear wane to zero over Wane.
	TwoStep = importance.TwoStep
	// Constant is traditional no-expiration storage at a fixed level.
	Constant = importance.Constant
	// Dirac is cache-like degradation: importance zero from birth.
	Dirac = importance.Dirac
	// Linear decays linearly from Start to zero at Expire.
	Linear = importance.Linear
	// Exponential decays with a half-life, truncated at Expire.
	Exponential = importance.Exponential
	// Piecewise is a general monotone piecewise-linear function.
	Piecewise = importance.Piecewise
)

// NewTwoStep validates and builds a two-step importance function.
func NewTwoStep(plateau float64, persist, wane time.Duration) (TwoStep, error) {
	return importance.NewTwoStep(plateau, persist, wane)
}

// ParseImportance parses the spec syntax used by the CLI tools, e.g.
// "twostep:p=1,persist=15d,wane=15d".
func ParseImportance(spec string) (ImportanceFunc, error) {
	return importance.ParseSpec(spec)
}

// ValidateImportance checks range and monotonicity of a function.
func ValidateImportance(f ImportanceFunc) error { return importance.Validate(f) }

// MinImportance is the pointwise minimum of functions (monotone-preserving).
func MinImportance(fns ...ImportanceFunc) (importance.Min, error) {
	return importance.NewMin(fns...)
}

// ProductImportance is the pointwise product of functions.
func ProductImportance(fns ...ImportanceFunc) (importance.Product, error) {
	return importance.NewProduct(fns...)
}

// CapImportance clamps a function to at most level (e.g. a student stream
// derived from a university lifetime at half the ceiling).
func CapImportance(f ImportanceFunc, level float64) (importance.Min, error) {
	return importance.Cap(f, level)
}

// Object model.
type (
	// Object is a stored blob plus its reclamation metadata.
	Object = object.Object
	// ObjectID names an object.
	ObjectID = object.ID
	// Class groups objects by creator type.
	Class = object.Class
)

// Object classes.
const (
	ClassGeneric    = object.ClassGeneric
	ClassUniversity = object.ClassUniversity
	ClassStudent    = object.ClassStudent
)

// NewObject validates and builds an object.
func NewObject(id ObjectID, size int64, arrival time.Duration, imp ImportanceFunc) (*Object, error) {
	return object.New(id, size, arrival, imp)
}

// Policies.
type (
	// Policy plans admissions and preemptions for a storage unit.
	Policy = policy.Policy
	// TemporalImportance is the paper's reclamation policy.
	TemporalImportance = policy.TemporalImportance
	// FIFO is the Palimpsest-like baseline.
	FIFO = policy.FIFO
	// Traditional never reclaims and rejects when full.
	Traditional = policy.Traditional
	// FairShare layers per-owner capacity quotas over the temporal
	// policy (the paper's Section 1 fairness requirement).
	FairShare = policy.FairShare
	// Decision is a policy's admission plan.
	Decision = policy.Decision
)

// Storage unit.
type (
	// Unit is one policy-governed storage unit.
	Unit = store.Unit
	// UnitOption configures a Unit.
	UnitOption = store.Option
	// Eviction records one reclaimed object.
	Eviction = store.Eviction
	// Rejection records one object the unit was full for.
	Rejection = store.Rejection
)

// NewUnit builds a storage unit of the given byte capacity.
func NewUnit(capacity int64, pol Policy, opts ...UnitOption) (*Unit, error) {
	return store.New(capacity, pol, opts...)
}

// Unit options.
var (
	// WithUnitName names the unit in reports.
	WithUnitName = store.WithName
	// WithEvictionHook observes every eviction.
	WithEvictionHook = store.WithEvictionHook
	// WithRejectionHook observes every rejection.
	WithRejectionHook = store.WithRejectionHook
	// WithAdmissionHook observes every admission.
	WithAdmissionHook = store.WithAdmissionHook
)

// Distributed simulation.
type (
	// Cluster is a simulated Besteffs deployment running the Section 5.3
	// placement algorithm over a p2p overlay.
	Cluster = cluster.Cluster
	// ClusterOption configures a Cluster.
	ClusterOption = cluster.Option
	// Placement reports where an admitted object landed.
	Placement = cluster.Placement
)

// NewCluster builds a simulated cluster of n units joined by a random
// overlay of the given degree.
func NewCluster(n int, capacity int64, pol Policy, degree int, rng *rand.Rand, opts ...ClusterOption) (*Cluster, error) {
	return cluster.New(n, capacity, pol, degree, rng, opts...)
}

// Cluster options.
var (
	// WithSampleSize sets x, the units sampled per placement round.
	WithSampleSize = cluster.WithSampleSize
	// WithMaxTries sets m, the maximum placement rounds.
	WithMaxTries = cluster.WithMaxTries
	// WithWalkLength sets the random-walk length per sample.
	WithWalkLength = cluster.WithWalkLength
)

// Live networking.
type (
	// Server is a live Besteffs storage node over TCP.
	Server = server.Server
	// ServerOption configures a Server.
	ServerOption = server.Option
	// EngineConfig sizes a Server's storage engine: total capacity, the
	// admission policy, and the in-process shard count splitting both
	// (zero Shards means one).
	EngineConfig = server.EngineConfig
	// StorageEngine is a Server's sharded storage engine: it routes object
	// IDs over the shards and presents the merged node-level view
	// (density, importance boundary, residents).
	StorageEngine = store.Engine
	// Client is a connection to one node.
	Client = client.Client
	// ClusterClient places objects across live nodes with the paper's
	// placement algorithm.
	ClusterClient = client.ClusterClient
	// PutRequest describes one object to store on a node.
	PutRequest = client.PutRequest
)

// NewServer builds a live storage node from an engine configuration:
//
//	srv, err := besteffs.NewServer(besteffs.EngineConfig{
//		Capacity: 1 << 30,
//		Policy:   besteffs.TemporalImportance{},
//		Shards:   4, // optional: partition over 4 in-process shards
//	})
func NewServer(cfg EngineConfig, opts ...ServerOption) (*Server, error) {
	return server.New(cfg, opts...)
}

// BlobStore holds payload bytes for a live node.
type BlobStore = blob.Store

// NewFileBlobStore opens the on-disk payload store -- an append-only segment
// log -- rooted at dir.
func NewFileBlobStore(dir string) (*blob.FileStore, error) {
	return blob.NewFileStore(dir)
}

// WithBlobStore points a live node's payloads at a BlobStore (for example
// a file store), instead of the default in-memory store.
var WithBlobStore = server.WithBlobStore

// Dial connects to a live node.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return client.Dial(addr, timeout)
}

// DialCluster connects to many nodes and returns the placement client.
func DialCluster(addrs []string, timeout time.Duration, rng *rand.Rand) (*ClusterClient, error) {
	return client.DialCluster(addrs, timeout, rng)
}

// DialClusterSeed connects to one seed node, asks it for the cluster's
// live membership, and returns a placement client connected to every
// alive member. Requires the nodes to run the membership protocol (a
// MemberAgent attached via Server.SetMembership, or besteffsd -join).
func DialClusterSeed(ctx context.Context, seed string, timeout time.Duration, rng *rand.Rand) (*ClusterClient, error) {
	return client.DialClusterSeed(ctx, seed, timeout, rng)
}

// Cluster membership over the real wire.
type (
	// MemberAgent runs the gossip membership protocol for one live node:
	// it advertises the node's address, importance boundary, free bytes
	// and density to its peers, detects dead peers by advertisement
	// staleness, and carries the push-sum density average over TCP.
	// Attach it to the node with Server.SetMembership.
	MemberAgent = member.Agent
	// MemberConfig configures a MemberAgent.
	MemberConfig = member.Config
)

// NewMemberAgent builds a membership agent; call its Run to start
// gossiping and Server.SetMembership to let the node answer GOSSIP and
// MEMBERS requests.
func NewMemberAgent(cfg MemberConfig) (*MemberAgent, error) {
	return member.NewAgent(cfg)
}
