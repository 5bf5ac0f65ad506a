package loop

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestRun: an enabled task runs every period and, with AtStart, once at
// start; a task with no period stays off; Run returns only after every step
// in flight has returned.
func TestRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ticks, starts, off, inFlight atomic.Int32
	started := make(chan struct{})
	blocked := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		Run(ctx,
			Task{Every: 5 * time.Millisecond, Step: func(ctx context.Context) {
				if ticks.Add(1) == 3 {
					inFlight.Add(1)
					close(blocked)
					<-ctx.Done()
					time.Sleep(5 * time.Millisecond)
					inFlight.Add(-1)
				}
			}},
			Task{Every: time.Hour, AtStart: true, Step: func(context.Context) {
				starts.Add(1)
				close(started)
			}},
			Task{Every: 0, Step: func(context.Context) { off.Add(1) }},
		)
	}()
	<-started
	<-blocked
	cancel()
	<-done
	if n := inFlight.Load(); n != 0 {
		t.Errorf("Run returned with %d steps in flight", n)
	}
	if n := ticks.Load(); n != 3 {
		t.Errorf("periodic step ran %d times, want 3 (it blocked on the third)", n)
	}
	if n := starts.Load(); n != 1 {
		t.Errorf("AtStart step with an hour's period ran %d times, want 1", n)
	}
	if n := off.Load(); n != 0 {
		t.Errorf("step with no period ran %d times", n)
	}
}
