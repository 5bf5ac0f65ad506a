package wire

// Cluster messages: membership gossip, replication, and anti-entropy index
// exchange. A REPLICATE is a Put pushed node-to-node (answered by a
// PutResult); INDEX_DELTA exchanges per-node object summaries so the
// repair loop can detect under-replicated or divergent objects; GOSSIP
// carries one membership heartbeat plus a push-sum share for the
// cluster-wide density average; MEMBERS and REPAIR_STATUS are the
// operator-facing views.

import (
	"besteffs/internal/codec"
	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// Replicate pushes one object to a peer replica. The field layout matches
// Put with the object's server-side age appended, so the receiver can
// restore the original arrival time and the importance decays identically
// on every replica. Answered by a PutResult.
type Replicate struct {
	ID         object.ID
	Owner      string
	Class      object.Class
	Version    uint32
	Importance importance.Function
	// AgeNanos is the object's age on the sending node at encode time.
	AgeNanos int64
	Payload  []byte
}

// Op implements Message.
func (*Replicate) Op() Op { return OpReplicate }

// sizeHint: see Put.sizeHint.
func (m *Replicate) sizeHint() int {
	return 96 + len(m.ID) + len(m.Owner) + len(m.Payload)
}

func (m *Replicate) fields(c *codec.Codec) {
	id(c, &m.ID)
	c.Str(&m.Owner)
	class(c, &m.Class)
	c.U32(&m.Version)
	importance.Field(c, &m.Importance)
	c.I64(&m.AgeNanos)
	c.Bytes(&m.Payload)
}

// IndexEntry summarizes one resident object for anti-entropy comparison.
// Initial is the importance at age zero -- the replication threshold key
// and the repair ordering key. CRC detects divergent payloads at equal
// versions.
type IndexEntry struct {
	ID       object.ID
	Version  uint32
	CRC      uint32
	Size     int64
	Initial  float64
	AgeNanos int64
}

func (e *IndexEntry) fields(c *codec.Codec) {
	id(c, &e.ID)
	c.U32(&e.Version)
	c.U32(&e.CRC)
	c.I64(&e.Size)
	c.F64(&e.Initial)
	c.I64(&e.AgeNanos)
}

// IndexDelta is the anti-entropy exchange: the caller tells the receiver
// what its above-threshold index looks like so the receiver can report the
// difference -- which of the receiver's objects the caller is missing and
// which of the caller's objects the receiver needs. Instead of resending
// the full index every pass, the caller sends only the entries added,
// changed or removed since the receiver last acknowledged its sequence. Seq
// numbers the caller's snapshot generations per peer; BaseSeq is the
// generation the delta applies on top of. Full carries a complete snapshot
// (first contact, or recovery after a sequence gap). The receiver
// reconstructs the caller's index from its mirror, compares it with its
// own, and acknowledges Seq -- or asks for a resync when its mirror does
// not match BaseSeq (restart on either side, eviction of the mirror, or a
// changed threshold). An entry supersedes another when its version is
// higher, or versions are equal and the CRC differs (divergence, resolved
// by the higher CRC as an arbitrary but convergent tiebreak).
type IndexDelta struct {
	// From identifies the caller's mirror on the receiver (its serving
	// address, stable across connections).
	From      string
	Threshold float64
	BaseSeq   uint64
	Seq       uint64
	Full      bool
	// Upserts are entries added or superseded since BaseSeq (the whole
	// index when Full).
	Upserts []IndexEntry
	// Removed are IDs that dropped out of the above-threshold index.
	Removed []object.ID
}

// Op implements Message.
func (*IndexDelta) Op() Op { return OpIndexDelta }

func (m *IndexDelta) sizeHint() int { return 64 + 64*len(m.Upserts) + 32*len(m.Removed) }

func (m *IndexDelta) fields(c *codec.Codec) {
	c.Str(&m.From)
	c.F64(&m.Threshold)
	c.U64(&m.BaseSeq)
	c.U64(&m.Seq)
	c.Bool(&m.Full)
	list32(c, &m.Upserts, indexEntryElem)
	list32(c, &m.Removed, idElem)
}

// IndexDeltaResult answers an IndexDelta. When Resync is set the receiver
// could not apply the delta (sequence gap); the caller must resend Full and
// the comparison fields are empty. Otherwise AckSeq acknowledges the
// applied generation and Missing/Need carry the comparison against the
// receiver's own index.
type IndexDeltaResult struct {
	Resync bool
	AckSeq uint64
	// Missing lists objects the receiver holds that the caller lacks or
	// holds a superseded copy of: candidates for the caller to pull.
	Missing []IndexEntry
	// Need lists IDs the caller advertised that the receiver lacks or
	// holds a superseded copy of.
	Need []object.ID
}

// Op implements Message.
func (*IndexDeltaResult) Op() Op { return OpIndexDeltaResult }

func (m *IndexDeltaResult) sizeHint() int { return 32 + 64*len(m.Missing) + 32*len(m.Need) }

func (m *IndexDeltaResult) fields(c *codec.Codec) {
	c.Bool(&m.Resync)
	c.U64(&m.AckSeq)
	list32(c, &m.Missing, indexEntryElem)
	list32(c, &m.Need, idElem)
}

// MemberInfo advertises one node's identity and placement state: its
// address, boot incarnation, per-incarnation version (bumped by the origin
// on every heartbeat, so staleness is totally ordered), the highest
// importance a put would currently preempt (the Section 5.3 placement key),
// free bytes, importance density, the node's TLS device ID (empty on
// cleartext clusters), and the cluster-config version it is enforcing.
type MemberInfo struct {
	Addr        string
	Incarnation uint64
	Version     uint64
	Boundary    float64
	Free        int64
	Density     float64
	Alive       bool
	// Device is the hex hash of the node's certificate public key; ""
	// when the node runs cleartext.
	Device string
	// ConfigVersion is the cluster-config version the node has adopted;
	// 0 means no opinion yet.
	ConfigVersion uint64
}

func (mi *MemberInfo) fields(c *codec.Codec) {
	c.Str(&mi.Addr)
	c.U64(&mi.Incarnation)
	c.U64(&mi.Version)
	c.F64(&mi.Boundary)
	c.I64(&mi.Free)
	c.F64(&mi.Density)
	c.Bool(&mi.Alive)
	c.Str(&mi.Device)
	c.U64(&mi.ConfigVersion)
}

// ClusterConfig is the versioned policy every replica must jointly enforce:
// replication factor R, the initial-importance replication threshold, and
// the gossip/repair cadences. Versions are monotonic and minted by the
// origin node; a node seeing a higher version adopts it, so the whole
// cluster converges to one policy instead of silently drifting on per-node
// flags. Version 0 means "no opinion": the zero value is both the
// wire-compatible default and the join-time stance of a node that defers to
// the cluster.
type ClusterConfig struct {
	Version uint64
	// Origin is the address of the node that minted this version.
	Origin string
	// Replicas is the replication factor R.
	Replicas uint32
	// Threshold is the initial-importance replication threshold.
	Threshold float64
	// GossipIntervalNanos and RepairIntervalNanos are the loop cadences.
	// They are compared for config mismatch only: each node runs its loops
	// at its own flags, and nothing applies an adopted cadence.
	GossipIntervalNanos int64
	RepairIntervalNanos int64
}

// IsZero reports whether the config carries no opinion.
func (c ClusterConfig) IsZero() bool { return c.Version == 0 }

// SamePolicy reports whether two configs agree on the enforced policy
// (everything but the version bookkeeping).
func (c ClusterConfig) SamePolicy(o ClusterConfig) bool {
	return c.Replicas == o.Replicas && c.Threshold == o.Threshold &&
		c.GossipIntervalNanos == o.GossipIntervalNanos &&
		c.RepairIntervalNanos == o.RepairIntervalNanos
}

func (cc *ClusterConfig) fields(c *codec.Codec) {
	c.U64(&cc.Version)
	c.Str(&cc.Origin)
	c.U32(&cc.Replicas)
	c.F64(&cc.Threshold)
	c.I64(&cc.GossipIntervalNanos)
	c.I64(&cc.RepairIntervalNanos)
}

// Gossip carries one membership heartbeat: the sender's own advertisement,
// its view of the cluster, a push-sum share (Kempe et al.) for the
// cluster-wide density average, scoped to an epoch so restarts cannot leak
// mass forever, and the sender's cluster config so policy converges at the
// same cadence as membership. Answered by a GossipResult carrying the
// receiver's view and return share (push-pull), or by an Error with
// CodeConfigMismatch when the configs conflict at equal versions.
type Gossip struct {
	From        MemberInfo
	Epoch       uint64
	ShareValue  float64
	ShareWeight float64
	Members     []MemberInfo
	Config      ClusterConfig
}

// Op implements Message.
func (*Gossip) Op() Op { return OpGossip }

func (m *Gossip) sizeHint() int { return 160 + 80*(len(m.Members)+1) }

func (m *Gossip) fields(c *codec.Codec) {
	m.From.fields(c)
	c.U64(&m.Epoch)
	c.F64(&m.ShareValue)
	c.F64(&m.ShareWeight)
	list16(c, &m.Members, memberInfoElem)
	m.Config.fields(c)
}

// GossipResult answers a Gossip with the receiver's view, return share, and
// cluster config.
type GossipResult struct {
	Epoch       uint64
	ShareValue  float64
	ShareWeight float64
	Members     []MemberInfo
	Config      ClusterConfig
}

// Op implements Message.
func (*GossipResult) Op() Op { return OpGossipResult }

func (m *GossipResult) sizeHint() int { return 128 + 80*len(m.Members) }

func (m *GossipResult) fields(c *codec.Codec) {
	c.U64(&m.Epoch)
	c.F64(&m.ShareValue)
	c.F64(&m.ShareWeight)
	list16(c, &m.Members, memberInfoElem)
	m.Config.fields(c)
}

// Members requests the receiver's membership table. Answered by a
// MembersResult; clients use it to discover the cluster from one seed.
type Members struct{}

// Op implements Message.
func (*Members) Op() Op { return OpMembers }

func (*Members) fields(*codec.Codec) {}

// MembersResult carries the receiver's membership table.
type MembersResult struct {
	Members []MemberInfo
}

// Op implements Message.
func (*MembersResult) Op() Op { return OpMembersResult }

func (m *MembersResult) sizeHint() int { return 16 + 80*len(m.Members) }

func (m *MembersResult) fields(c *codec.Codec) { list16(c, &m.Members, memberInfoElem) }

// RepairStatus requests the receiver's anti-entropy repair counters.
// Answered by a RepairStatusResult.
type RepairStatus struct{}

// Op implements Message.
func (*RepairStatus) Op() Op { return OpRepairStatus }

func (*RepairStatus) fields(*codec.Codec) {}

// RepairStatusResult reports the repair loop's configuration and counters.
type RepairStatusResult struct {
	// Replicas is the configured replication factor R.
	Replicas uint32
	// Threshold is the initial-importance replication threshold.
	Threshold float64
	// Pushed counts objects pushed synchronously at ingest.
	Pushed uint64
	// Pulled counts objects pulled by anti-entropy passes.
	Pulled uint64
	// PushFailures counts failed ingest-time pushes.
	PushFailures uint64
	// Passes counts completed anti-entropy passes.
	Passes uint64
	// UnderReplicated is the deficit observed at the start of the most
	// recent pass (objects below replication factor R).
	UnderReplicated uint64
	// Pending is the deficit remaining after the most recent pass.
	Pending uint64
	// BytesRepaired counts payload bytes pulled by repair.
	BytesRepaired uint64
	// LastPassNanos is the wall-clock duration of the most recent pass.
	LastPassNanos int64
}

// Op implements Message.
func (*RepairStatusResult) Op() Op { return OpRepairStatusResult }

func (m *RepairStatusResult) fields(c *codec.Codec) {
	c.U32(&m.Replicas)
	c.F64(&m.Threshold)
	c.U64(&m.Pushed)
	c.U64(&m.Pulled)
	c.U64(&m.PushFailures)
	c.U64(&m.Passes)
	c.U64(&m.UnderReplicated)
	c.U64(&m.Pending)
	c.U64(&m.BytesRepaired)
	c.I64(&m.LastPassNanos)
}

// Supersedes reports whether version a at CRC aCRC supersedes version b at
// CRC bCRC: strictly newer version wins; at equal versions a differing CRC
// is divergence, resolved toward the higher CRC so every replica converges
// to the same copy without coordination.
func Supersedes(aVer, bVer uint32, aCRC, bCRC uint32) bool {
	if aVer != bVer {
		return aVer > bVer
	}
	return aCRC > bCRC
}
