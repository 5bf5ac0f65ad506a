package wire

// Telemetry messages: TRACE_DUMP drains a node's span ring so `besteffsctl
// trace` can assemble a cross-node timeline, and EVENTS drains the flight
// recorder for postmortems. Both are operator-facing reads that carry the
// telemetry package's records as they are, wall-clock times as Unix
// nanoseconds.

import (
	"besteffs/internal/codec"
	"besteffs/internal/telemetry"
)

func spanFields(s *telemetry.Span, c *codec.Codec) {
	c.Str(&s.Trace)
	c.U64(&s.ID)
	c.U64(&s.Parent)
	c.Str(&s.Name)
	c.Str(&s.Node)
	c.Str(&s.Peer)
	instant(c, &s.Start)
	c.I64((*int64)(&s.Duration))
	c.Str(&s.Note)
}

// TraceDump requests the spans a node holds for one trace (or its whole span
// ring when Trace is empty). Answered by a TraceDumpResult.
type TraceDump struct {
	// Trace filters the dump to one trace ID; empty returns every held span.
	Trace string
}

// Op implements Message.
func (*TraceDump) Op() Op { return OpTraceDump }

func (m *TraceDump) fields(c *codec.Codec) { c.Str(&m.Trace) }

// TraceDumpResult carries the requested spans, oldest first.
type TraceDumpResult struct {
	// Node is the advertised address of the answering node.
	Node  string
	Spans []telemetry.Span
}

// Op implements Message.
func (*TraceDumpResult) Op() Op { return OpTraceDumpResult }

func (m *TraceDumpResult) sizeHint() int { return 32 + 96*len(m.Spans) }

func (m *TraceDumpResult) fields(c *codec.Codec) {
	c.Str(&m.Node)
	list32(c, &m.Spans, spanElem)
}

func eventFields(e *telemetry.Event, c *codec.Codec) {
	c.U64(&e.Seq)
	instant(c, &e.Wall)
	c.U8((*uint8)(&e.Kind))
	c.Str(&e.ID)
	c.Str(&e.Peer)
	c.Str(&e.Trace)
	c.F64(&e.Importance)
	c.F64(&e.Boundary)
	c.Str(&e.Detail)
}

// Events requests the tail of a node's flight recorder. Answered by an
// EventsResult.
type Events struct {
	// Limit caps the dump to the most recent Limit events; 0 returns every
	// held event.
	Limit uint32
}

// Op implements Message.
func (*Events) Op() Op { return OpEvents }

func (m *Events) fields(c *codec.Codec) { c.U32(&m.Limit) }

// EventsResult carries the requested flight-recorder events, oldest first.
type EventsResult struct {
	// Node is the advertised address of the answering node.
	Node   string
	Events []telemetry.Event
}

// Op implements Message.
func (*EventsResult) Op() Op { return OpEventsResult }

func (m *EventsResult) sizeHint() int { return 32 + 96*len(m.Events) }

func (m *EventsResult) fields(c *codec.Codec) {
	c.Str(&m.Node)
	list32(c, &m.Events, eventElem)
}
