package server

// Telemetry dispatch: the TRACE_DUMP and EVENTS handlers that drain the
// node's span ring and flight recorder over the wire, the span-note
// annotation, and the slow-request span-tree logging.

import (
	"strings"
	"time"

	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// handleTraceDump answers TRACE_DUMP with the node's held spans, filtered to
// one trace when the request names one.
func (s *Server) handleTraceDump(m *wire.TraceDump) wire.Message {
	return &wire.TraceDumpResult{Node: s.nodeAddr, Spans: s.traceSpans(m.Trace)}
}

// traceSpans returns the held spans of one trace (every held span for ""),
// oldest first.
func (s *Server) traceSpans(trace string) []telemetry.Span {
	return s.spans.Select(func(sp *telemetry.Span) bool { return trace == "" || sp.Trace == trace })
}

// handleEvents answers EVENTS with the tail of the node's flight recorder.
func (s *Server) handleEvents(m *wire.Events) wire.Message {
	evs := s.events.Snapshot()
	if m.Limit > 0 && len(evs) > int(m.Limit) {
		evs = evs[len(evs)-int(m.Limit):]
	}
	return &wire.EventsResult{Node: s.nodeAddr, Events: evs}
}

// spanNote summarizes a response for the span's outcome annotation: put
// verdicts and error texts are what an operator reading a trace wants; the
// rest stays blank.
func spanNote(resp wire.Message) string {
	switch r := resp.(type) {
	case *wire.PutResult:
		if r.Admitted {
			return "admitted"
		}
		return "refused"
	case *wire.ErrorMsg:
		return "error: " + r.Text
	default:
		return ""
	}
}

// logSlowRequest logs a traced request that crossed the slow threshold at
// WARN, with the trace's completed span tree (as held by the local ring) so
// the log line already says where the time went -- the local hop plus any
// replication or recovery hops that happened to record here.
func (s *Server) logSlowRequest(d dispatched, elapsed time.Duration, remote string) {
	roots := telemetry.Assemble(s.traceSpans(d.sc.Trace))
	var sb strings.Builder
	telemetry.FormatTree(&sb, roots)
	s.log.Warn("slow request", "op", d.op, "trace", d.sc.Trace, "dur", elapsed,
		"remote", remote, "spans", telemetry.CountSpans(roots),
		"tree", "\n"+strings.TrimRight(sb.String(), "\n"))
}
