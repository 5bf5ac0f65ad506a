package wire

import (
	"errors"
	"fmt"

	"besteffs/internal/codec"
	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// Message is a decoded protocol message.
type Message interface {
	// Op returns the message's opcode.
	Op() Op
	// fields names the message's fields once, in wire order, to a codec
	// that is either encoding or decoding them.
	fields(c *codec.Codec)
}

// ErrUnknownOp reports an unrecognized opcode.
var ErrUnknownOp = errors.New("wire: unknown opcode")

// sizeHinter lets payload-carrying messages report their rough encoded
// size, so Encode can allocate once instead of growing through append.
type sizeHinter interface {
	sizeHint() int
}

// Put stores an object with its importance annotation.
type Put struct {
	ID         object.ID
	Owner      string
	Class      object.Class
	Version    uint32
	Importance importance.Function
	Payload    []byte

	// encoding is the annotation as the frame carried it, when a Decoder
	// decoded the put (see ImportanceEncoding).
	encoding []byte
}

// Op implements Message.
func (*Put) Op() Op { return OpPut }

// sizeHint reserves one allocation for the frame: fields, payload, and
// headroom for the importance encoding and the optional trailers.
func (m *Put) sizeHint() int {
	return 96 + len(m.ID) + len(m.Owner) + len(m.Payload)
}

func (m *Put) fields(c *codec.Codec) { m.walk(c, false) }

// walk names the fields of a Put. A Decoder's walk keeps the importance
// field encoded; a put that holds only that encoding encodes it as it came.
func (m *Put) walk(c *codec.Codec, encoded bool) {
	id(c, &m.ID)
	c.Str(&m.Owner)
	class(c, &m.Class)
	c.U32(&m.Version)
	if encoded || (c.Enc && m.Importance == nil && m.encoding != nil) {
		importance.EncodedField(c, &m.encoding)
	} else {
		importance.Field(c, &m.Importance)
	}
	c.Bytes(&m.Payload)
}

// ImportanceEncoding returns the put's importance function as its frame
// carried it, when a Decoder decoded the put: importance.Check accepted the
// bytes, which are a slice of the frame body, and Importance is nil, so the
// function is built only by whoever needs it. It returns nil for a put
// decoded by Decode or built in memory, whose Importance is set.
func (m *Put) ImportanceEncoding() []byte { return m.encoding }

// Update supersedes the resident version of an object with new bytes and a
// new annotation: Besteffs's "write once with versioned updates". The field
// layout matches Put; the response is a PutResult.
type Update struct {
	ID         object.ID
	Owner      string
	Class      object.Class
	Importance importance.Function
	Payload    []byte
}

// Op implements Message.
func (*Update) Op() Op { return OpUpdate }

func (m *Update) fields(c *codec.Codec) {
	id(c, &m.ID)
	c.Str(&m.Owner)
	class(c, &m.Class)
	importance.Field(c, &m.Importance)
	c.Bytes(&m.Payload)
}

// Get retrieves an object by ID.
type Get struct{ ID object.ID }

// Op implements Message.
func (*Get) Op() Op { return OpGet }

func (m *Get) fields(c *codec.Codec) { id(c, &m.ID) }

// Delete removes an object by ID.
type Delete struct{ ID object.ID }

// Op implements Message.
func (*Delete) Op() Op { return OpDelete }

func (m *Delete) fields(c *codec.Codec) { id(c, &m.ID) }

// Stat requests unit statistics.
type Stat struct{}

// Op implements Message.
func (*Stat) Op() Op { return OpStat }

func (*Stat) fields(*codec.Codec) {}

// Probe asks for the admission boundary of a hypothetical object: the
// placement primitive of Section 5.3.
type Probe struct {
	Size       int64
	Importance importance.Function
}

// Op implements Message.
func (*Probe) Op() Op { return OpProbe }

func (m *Probe) fields(c *codec.Codec) {
	c.I64(&m.Size)
	importance.Field(c, &m.Importance)
}

// Density requests the instantaneous storage importance density.
type Density struct{}

// Op implements Message.
func (*Density) Op() Op { return OpDensity }

func (*Density) fields(*codec.Codec) {}

// List requests the resident object IDs.
type List struct{}

// Op implements Message.
func (*List) Op() Op { return OpList }

func (*List) fields(*codec.Codec) {}

// PutResult reports an admission decision.
type PutResult struct {
	Admitted bool
	// Boundary is the highest importance preempted (admission) or the
	// blocking importance (rejection).
	Boundary float64
	// Reason is the policy.Reason value for rejections.
	Reason uint8
	// Evicted lists the IDs reclaimed to make room.
	Evicted []object.ID
}

// Op implements Message.
func (*PutResult) Op() Op { return OpPutResult }

func (m *PutResult) fields(c *codec.Codec) {
	c.Bool(&m.Admitted)
	c.F64(&m.Boundary)
	c.U8(&m.Reason)
	list16(c, &m.Evicted, idElem)
}

// ObjectMsg carries a retrieved object.
type ObjectMsg struct {
	ID         object.ID
	Owner      string
	Class      object.Class
	Version    uint32
	Importance importance.Function
	// AgeNanos is the object's age on the server at response time.
	AgeNanos int64
	// CurrentImportance is the server-evaluated importance at response
	// time.
	CurrentImportance float64
	Payload           []byte
}

// Op implements Message.
func (*ObjectMsg) Op() Op { return OpObject }

// sizeHint: see Put.sizeHint.
func (m *ObjectMsg) sizeHint() int {
	return 96 + len(m.ID) + len(m.Owner) + len(m.Payload)
}

func (m *ObjectMsg) fields(c *codec.Codec) {
	id(c, &m.ID)
	c.Str(&m.Owner)
	class(c, &m.Class)
	c.U32(&m.Version)
	importance.Field(c, &m.Importance)
	c.I64(&m.AgeNanos)
	c.F64(&m.CurrentImportance)
	c.Bytes(&m.Payload)
}

// OK acknowledges a Delete.
type OK struct{}

// Op implements Message.
func (*OK) Op() Op { return OpOK }

func (*OK) fields(*codec.Codec) {}

// StatResult reports node statistics: the merged totals followed by the
// per-shard breakdown (a single entry on unsharded nodes).
type StatResult struct {
	Capacity, Used int64
	Objects        uint32
	Density        float64
	// Shards is the per-shard slice of the merged view, in shard order.
	Shards []ShardStat
}

// ShardStat is one shard's slice of a StatResult.
type ShardStat struct {
	Capacity int64   `json:"capacity_bytes"`
	Used     int64   `json:"used_bytes"`
	Objects  uint32  `json:"objects"`
	Density  float64 `json:"density"`
	// Boundary is the shard's importance boundary: the importance an
	// arrival routed to this shard must exceed once it is full.
	Boundary float64 `json:"boundary"`
}

// Op implements Message.
func (*StatResult) Op() Op { return OpStatResult }

// The shard list is unconditional (count-prefixed, possibly zero): trailers
// reject unknown bytes wholesale, so optional sections cannot ride behind
// the fixed fields.
func (m *StatResult) fields(c *codec.Codec) {
	c.I64(&m.Capacity)
	c.I64(&m.Used)
	c.U32(&m.Objects)
	c.F64(&m.Density)
	list16(c, &m.Shards, shardStatElem)
}

func (s *ShardStat) fields(c *codec.Codec) {
	c.I64(&s.Capacity)
	c.I64(&s.Used)
	c.U32(&s.Objects)
	c.F64(&s.Density)
	c.F64(&s.Boundary)
}

// ProbeResult reports the admission boundary for a probe.
type ProbeResult struct {
	Admissible bool
	Boundary   float64
}

// Op implements Message.
func (*ProbeResult) Op() Op { return OpProbeResult }

func (m *ProbeResult) fields(c *codec.Codec) {
	c.Bool(&m.Admissible)
	c.F64(&m.Boundary)
}

// DensityResult reports the storage importance density.
type DensityResult struct{ Density float64 }

// Op implements Message.
func (*DensityResult) Op() Op { return OpDensityResult }

func (m *DensityResult) fields(c *codec.Codec) { c.F64(&m.Density) }

// ListResult carries the resident IDs.
type ListResult struct{ IDs []object.ID }

// Op implements Message.
func (*ListResult) Op() Op { return OpListResult }

func (m *ListResult) fields(c *codec.Codec) { list32(c, &m.IDs, idElem) }

// Error codes carried by ErrorMsg.
const (
	CodeInternal uint8 = iota
	CodeNotFound
	CodeDuplicate
	CodeBadRequest
	// CodeConfigMismatch rejects a gossip join whose cluster config
	// conflicts with the receiver's at an equal version.
	CodeConfigMismatch
)

// ErrorMsg reports a request failure.
type ErrorMsg struct {
	Code uint8
	Text string
}

// Op implements Message.
func (*ErrorMsg) Op() Op { return OpError }

func (m *ErrorMsg) fields(c *codec.Codec) {
	c.U8(&m.Code)
	c.Str(&m.Text)
}

// Error implements the error interface so clients can return it directly.
func (m *ErrorMsg) Error() string {
	return fmt.Sprintf("wire: remote error %d: %s", m.Code, m.Text)
}
