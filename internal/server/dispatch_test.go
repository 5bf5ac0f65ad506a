package server

// dispatch decodes and executes one frame that arrived alone, in a session
// of its own.
func (s *Server) dispatch(body []byte) dispatched {
	return s.dispatchGroup(nil, [][]byte{body})[0]
}
