package wire

import (
	"besteffs/internal/codec"
	"besteffs/internal/telemetry"
)

// DensityHistory requests the node's recent density trajectory: the ring of
// (time, density, used bytes, importance boundary) samples the paper's
// Figure-style density plots are drawn from, captured live instead of in
// simulation.
type DensityHistory struct{}

// Op implements Message.
func (*DensityHistory) Op() Op { return OpDensityHistory }

func (*DensityHistory) fields(*codec.Codec) {}

// DensityHistoryResult carries the sampled trajectory, oldest first.
type DensityHistoryResult struct {
	Samples []telemetry.DensitySample
}

// Op implements Message.
func (*DensityHistoryResult) Op() Op { return OpDensityHistoryResult }

func (m *DensityHistoryResult) fields(c *codec.Codec) { list32(c, &m.Samples, sampleElem) }

func sampleFields(s *telemetry.DensitySample, c *codec.Codec) {
	c.I64((*int64)(&s.At))
	c.F64(&s.Density)
	c.I64(&s.Used)
	c.F64(&s.Boundary)
}
