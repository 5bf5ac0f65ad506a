package server

import (
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// dispatch decodes and executes one frame that arrived alone, in a session
// of its own.
func (s *Server) dispatch(body []byte) dispatched {
	return s.dispatchGroup(new(session), [][]byte{body})[0]
}

// execute runs one decoded request, untraced, as a group of one in a
// session of its own.
func (s *Server) execute(msg wire.Message) wire.Message {
	results := []wire.Message{nil}
	s.executeGroup(new(session), []wire.Message{msg}, []telemetry.SpanContext{{}}, results)
	return results[0]
}
