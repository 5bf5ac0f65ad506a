package wire

// DensityHistory requests the node's recent density trajectory: the ring of
// (time, density, used bytes, importance boundary) samples the paper's
// Figure-style density plots are drawn from, captured live instead of in
// simulation.
type DensityHistory struct{}

// Op implements Message.
func (*DensityHistory) Op() Op { return OpDensityHistory }

func (*DensityHistory) fields(*codec) {}

// HistorySample is one point on a node's density trajectory.
type HistorySample struct {
	// AtNanos is the node's virtual time of the sample.
	AtNanos int64
	// Density is the storage importance density at that time.
	Density float64
	// Used is the allocated bytes at that time.
	Used int64
	// Boundary is the importance level an arrival had to exceed to claim
	// the next byte (zero while free space remained).
	Boundary float64
}

// DensityHistoryResult carries the sampled trajectory, oldest first.
type DensityHistoryResult struct {
	Samples []HistorySample
}

// Op implements Message.
func (*DensityHistoryResult) Op() Op { return OpDensityHistoryResult }

func (m *DensityHistoryResult) fields(c *codec) { list32(c, &m.Samples, historySampleElem) }

func (s *HistorySample) fields(c *codec) {
	c.i64(&s.AtNanos)
	c.f64(&s.Density)
	c.i64(&s.Used)
	c.f64(&s.Boundary)
}
