package wire

// Telemetry messages: TRACE_DUMP drains a node's span ring so `besteffsctl
// trace` can assemble a cross-node timeline, and EVENTS drains the flight
// recorder for postmortems. Both are operator-facing reads that carry the
// telemetry package's records as they are, wall-clock times as Unix
// nanoseconds.

import "besteffs/internal/telemetry"

func spanFields(s *telemetry.Span, c *codec) {
	c.str(&s.Trace)
	c.u64(&s.ID)
	c.u64(&s.Parent)
	c.str(&s.Name)
	c.str(&s.Node)
	c.str(&s.Peer)
	c.time(&s.Start)
	c.i64((*int64)(&s.Duration))
	c.str(&s.Note)
}

// TraceDump requests the spans a node holds for one trace (or its whole span
// ring when Trace is empty). Answered by a TraceDumpResult.
type TraceDump struct {
	// Trace filters the dump to one trace ID; empty returns every held span.
	Trace string
}

// Op implements Message.
func (*TraceDump) Op() Op { return OpTraceDump }

func (m *TraceDump) fields(c *codec) { c.str(&m.Trace) }

// TraceDumpResult carries the requested spans, oldest first.
type TraceDumpResult struct {
	// Node is the advertised address of the answering node.
	Node  string
	Spans []telemetry.Span
}

// Op implements Message.
func (*TraceDumpResult) Op() Op { return OpTraceDumpResult }

func (m *TraceDumpResult) sizeHint() int { return 32 + 96*len(m.Spans) }

func (m *TraceDumpResult) fields(c *codec) {
	c.str(&m.Node)
	list32(c, &m.Spans, spanElem)
}

func eventFields(e *telemetry.Event, c *codec) {
	c.u64(&e.Seq)
	c.time(&e.Wall)
	c.u8((*uint8)(&e.Kind))
	c.str(&e.ID)
	c.str(&e.Peer)
	c.str(&e.Trace)
	c.f64(&e.Importance)
	c.f64(&e.Boundary)
	c.str(&e.Detail)
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

func (m *Events) fields(c *codec) { c.u32(&m.Limit) }

// EventsResult carries the requested flight-recorder events, oldest first.
type EventsResult struct {
	// Node is the advertised address of the answering node.
	Node   string
	Events []telemetry.Event
}

// Op implements Message.
func (*EventsResult) Op() Op { return OpEventsResult }

func (m *EventsResult) sizeHint() int { return 32 + 96*len(m.Events) }

func (m *EventsResult) fields(c *codec) {
	c.str(&m.Node)
	list32(c, &m.Events, eventElem)
}
