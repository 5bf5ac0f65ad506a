// Package member is the goroutinelifecycle fixture: member is a long-lived
// package, so every spawn here must show its shutdown tie.
package member

// Agent mirrors the gossip agent's liveness table.
type Agent struct {
	alive map[string]bool
}

// sweep drops the peers that went quiet.
func (a *Agent) sweep() {
	for peer, up := range a.alive {
		if !up {
			delete(a.alive, peer)
		}
	}
}

// Start spawns the fixture pair: the first goroutine ties itself to done;
// the second answers to nobody.
func (a *Agent) Start(done chan struct{}) {
	go func() {
		<-done
	}()
	go func() { // want "goroutine is not tied to a shutdown mechanism"
		for {
			a.sweep()
		}
	}()
}
