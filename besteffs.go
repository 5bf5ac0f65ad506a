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
//   - importance functions (TwoStep, Constant, Dirac; every other family
//     through ParseImportance's spec syntax) with validation;
//   - the storage-unit engine (Unit) with the temporal-importance and
//     fair-share policies;
//   - the simulated distributed cluster (Cluster) running the paper's
//     sample-and-probe placement over a p2p overlay;
//   - the live TCP node (Server) and the placement client (ClusterClient)
//     speaking the Besteffs wire protocol.
//
// The package's Example functions (go test -run '^Example' -v .) are the
// runnable walk-throughs; cmd/paperbench reproduces every figure and table
// in the paper's evaluation.
package besteffs

import (
	"math/rand"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/client"
	"besteffs/internal/cluster"
	"besteffs/internal/importance"
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

// Object model.
type (
	// Object is a stored blob plus its reclamation metadata.
	Object = object.Object
	// ObjectID names an object.
	ObjectID = object.ID
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
	// FairShare layers per-owner capacity quotas over the temporal
	// policy (the paper's Section 1 fairness requirement).
	FairShare = policy.FairShare
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
)

// Distributed simulation.
type (
	// Cluster is a simulated Besteffs deployment running the Section 5.3
	// placement algorithm over a p2p overlay.
	Cluster = cluster.Cluster
	// ClusterOption configures a Cluster.
	ClusterOption = cluster.Option
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

// NewFileBlobStore opens the on-disk payload store -- an append-only segment
// log -- rooted at dir.
func NewFileBlobStore(dir string) (*blob.FileStore, error) {
	return blob.NewFileStore(dir)
}

// WithBlobStore points a live node's payloads at a payload store (for
// example the file store), instead of the default in-memory store.
var WithBlobStore = server.WithBlobStore

// DialCluster connects to many nodes and returns the placement client.
func DialCluster(addrs []string, timeout time.Duration, rng *rand.Rand) (*ClusterClient, error) {
	return client.DialCluster(addrs, timeout, rng)
}
