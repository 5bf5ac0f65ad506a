package wire

import (
	"besteffs/internal/codec"
	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// Rejuvenate replaces a resident object's importance annotation with a
// fresh function aging from now: the paper's "active intervention by the
// user to increase an existing importance" (Section 3), and the trigger
// mechanism of its Section 6 scenarios (demote after a successful backup,
// promote on renewed interest).
type Rejuvenate struct {
	ID         object.ID
	Importance importance.Function
}

// Op implements Message.
func (*Rejuvenate) Op() Op { return OpRejuvenate }

func (m *Rejuvenate) fields(c *codec.Codec) {
	id(c, &m.ID)
	importance.Field(c, &m.Importance)
}

// RejuvenateResult acknowledges a rejuvenation with the object's new
// write-once version number.
type RejuvenateResult struct {
	Version uint32
}

// Op implements Message.
func (*RejuvenateResult) Op() Op { return OpRejuvenateResult }

func (m *RejuvenateResult) fields(c *codec.Codec) { c.U32(&m.Version) }
