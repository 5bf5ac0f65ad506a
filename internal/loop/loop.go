// Package loop runs a node's background steps on the wall clock. Each step
// is a plain synchronous function its package exposes (a sweep, a sample, a
// gossip tick, a repair pass); the daemon lists them with their periods in
// one table and runs the table here. A test that wants virtual time
// schedules the same steps on an internal/sim engine instead.
package loop

import (
	"context"
	"sync"
	"time"
)

// Task is one background step and its period.
type Task struct {
	// Every is the period; zero or less leaves the task off.
	Every time.Duration
	// Step runs one round. It gets the runner's context, which is cancelled
	// at shutdown, so a long step can stop early.
	Step func(ctx context.Context)
	// AtStart also runs Step once when the runner starts, before the first
	// period has passed, without holding back the other tasks.
	AtStart bool
}

// Run runs every enabled task on its own ticker until ctx is cancelled,
// and returns once every step in flight has returned; no step starts after
// the cancellation. Steps of different tasks run concurrently; one task's
// steps never overlap.
func Run(ctx context.Context, tasks ...Task) {
	var wg sync.WaitGroup
	for _, t := range tasks {
		if t.Every <= 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if t.AtStart && ctx.Err() == nil {
				t.Step(ctx)
			}
			ticker := time.NewTicker(t.Every)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					// A tick that raced the cancellation starts nothing.
					if ctx.Err() != nil {
						return
					}
					t.Step(ctx)
				}
			}
		}()
	}
	wg.Wait()
}
