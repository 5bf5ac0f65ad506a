// Package hot is the call-graph fixture: callgraph_test.go resolves a static
// edge one call deep, a cross-package edge, an interface-dispatch edge, a go
// edge and a lock acquisition over the functions below. No check has
// anything to flag here.
package hot

import (
	"sync"

	"fixture/internal/hotdep"
)

// Sink abstracts a payload sink; Push calls through it, so the
// conservative dispatch approximation must descend into every
// implementation in the load.
type Sink interface {
	Write(b []byte)
}

// Entry reaches grow through one static call.
func Entry(n int) []int {
	return grow(n)
}

func grow(n int) []int {
	return make([]int, n)
}

// EntryAppend calls across the package boundary.
func EntryAppend(dst []string, s string) []string {
	return hotdep.Grow(dst, s)
}

// Push dispatches through the Sink interface; the only implementation in
// the load is hotdep.BoxSink.
func Push(s Sink, b []byte) {
	s.Write(b)
}

// Gauge owns the mutex Bump acquires.
type Gauge struct {
	mu sync.Mutex
	v  int
}

// Bump acquires Gauge.mu.
func (g *Gauge) Bump() {
	g.mu.Lock()
	g.v++
	g.mu.Unlock()
}

// SpawnIt hands work to a goroutine: the spawned callee is reachable but off
// this function's synchronous path.
func SpawnIt() {
	go noop()
}

func noop() {}
