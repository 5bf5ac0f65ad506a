// Package hotdep is the callee side of the call-graph fixture: Grow is
// reached across the package boundary from hot.EntryAppend, and BoxSink is
// the load's only hot.Sink implementation, reached through interface
// dispatch from hot.Push.
package hotdep

// Grow appends on behalf of hot.EntryAppend.
func Grow(dst []string, s string) []string {
	return append(dst, s)
}

// BoxSink implements hot.Sink by buffering writes.
type BoxSink struct {
	buf []byte
}

// Write appends the payload.
func (s *BoxSink) Write(b []byte) {
	s.buf = append(s.buf, b...)
}
