package wire

// Telemetry messages: TRACE_DUMP drains a node's span ring so `besteffsctl
// trace` can assemble a cross-node timeline, and EVENTS drains the flight
// recorder for postmortems. Both are operator-facing reads; the structs here
// are the wire image of the telemetry package's Span and Event (converted at
// the server boundary, like MemberInfo), with wall-clock fields flattened to
// Unix nanoseconds.

// Span is the wire image of one recorded telemetry span.
type Span struct {
	Trace string
	// ID identifies the span within its trace; Parent is the span it
	// descends from (0 for roots).
	ID     uint64
	Parent uint64
	// Name says what the hop did; Node is the recording node's advertised
	// address; Peer the remote address for cross-node hops.
	Name string
	Node string
	Peer string
	// StartUnixNanos is the span's wall-clock start; DurationNanos how long
	// it took.
	StartUnixNanos int64
	DurationNanos  int64
	// Note carries a short outcome annotation.
	Note string
}

func (s *Span) fields(c *codec) {
	c.str(&s.Trace)
	c.u64(&s.ID)
	c.u64(&s.Parent)
	c.str(&s.Name)
	c.str(&s.Node)
	c.str(&s.Peer)
	c.i64(&s.StartUnixNanos)
	c.i64(&s.DurationNanos)
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
	Spans []Span
}

// Op implements Message.
func (*TraceDumpResult) Op() Op { return OpTraceDumpResult }

func (m *TraceDumpResult) sizeHint() int { return 32 + 96*len(m.Spans) }

func (m *TraceDumpResult) fields(c *codec) {
	c.str(&m.Node)
	list32(c, &m.Spans, spanElem)
}

// EventRecord is the wire image of one flight-recorder event.
type EventRecord struct {
	// Seq is the recorder-assigned order; WallUnixNanos the wall-clock time.
	Seq           uint64
	WallUnixNanos int64
	// Kind is the telemetry.EventKind value.
	Kind uint8
	// ID is the object concerned, Peer the remote node, Trace the linked
	// trace ID (each "" when not applicable).
	ID    string
	Peer  string
	Trace string
	// Importance and Boundary are the kind-specific decision values.
	Importance float64
	Boundary   float64
	// Detail is a short free-form annotation.
	Detail string
}

func (e *EventRecord) fields(c *codec) {
	c.u64(&e.Seq)
	c.i64(&e.WallUnixNanos)
	c.u8(&e.Kind)
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
	Events []EventRecord
}

// Op implements Message.
func (*EventsResult) Op() Op { return OpEventsResult }

func (m *EventsResult) sizeHint() int { return 32 + 96*len(m.Events) }

func (m *EventsResult) fields(c *codec) {
	c.str(&m.Node)
	list32(c, &m.Events, eventRecordElem)
}
