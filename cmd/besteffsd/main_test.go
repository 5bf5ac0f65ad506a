package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"besteffs/internal/loop"
	"besteffs/internal/server"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-policy", "bogus"}); err == nil {
		t.Error("bogus policy accepted")
	}
	if err := run([]string{"-addr", "not-an-address"}); err == nil {
		t.Error("bad address accepted")
	}
	if err := run([]string{"-max-conns", "-1"}); err == nil {
		t.Error("negative -max-conns accepted")
	}
	if err := run([]string{"-pprof"}); err == nil {
		t.Error("-pprof without -status accepted")
	}
	if err := run([]string{"-sample", "1s", "-sample-window", "0"}); err == nil {
		t.Error("zero -sample-window accepted")
	}
	if err := run([]string{"-wal-segment", "0"}); err == nil {
		t.Error("zero -wal-segment accepted")
	}
	if err := run([]string{"-wal-segment", "-4096"}); err == nil {
		t.Error("negative -wal-segment accepted")
	}
}

// TestRunRefusesMismatchedDataDir: a -data dir holding an older build's
// per-shard streams must fail at every -shards before the daemon creates,
// reconciles or deletes anything, and name the stream it found and the
// older build's converter.
func TestRunRefusesMismatchedDataDir(t *testing.T) {
	dataDir := t.TempDir()
	for i := 0; i < 4; i++ {
		if err := os.MkdirAll(filepath.Join(dataDir, fmt.Sprintf("shard-%03d", i), server.WALDirName), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	blob := filepath.Join(dataDir, "blobs", "000000000001.seg")
	if err := os.MkdirAll(filepath.Dir(blob), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blob, []byte("not an orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []string{"1", "4"} {
		err := run([]string{"-data", dataDir, "-shards", shards, "-addr", "127.0.0.1:0"})
		if !errors.Is(err, server.ErrLayoutMismatch) || !strings.Contains(err.Error(), "shard-000/") ||
			!strings.Contains(err.Error(), "besteffsctl reshard") {
			t.Errorf("-shards %s over a per-shard dir = %v, want ErrLayoutMismatch naming shard-000/ and besteffsctl reshard", shards, err)
		}
		if _, err := os.Stat(blob); err != nil {
			t.Errorf("-shards %s: payload gone after the refusal: %v", shards, err)
		}
		if _, err := os.Stat(filepath.Join(dataDir, server.WALDirName)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("-shards %s: the refusal created %s/", shards, server.WALDirName)
		}
	}
}

// stepLog records, per step of the daemon's schedule, how often it ran,
// when it first ran, and how many runs have not returned yet.
type stepLog struct {
	mu       sync.Mutex
	start    time.Time
	calls    map[string]int
	first    map[string]time.Duration
	inFlight int
	// ran receives each step's name when its first run begins.
	ran chan string
	// holding, when set, makes a step's second run wait for the runner's
	// cancellation, then take a moment more before it returns; held
	// receives its name when it starts to wait.
	holding bool
	held    chan string
}

func (l *stepLog) step(name string) func(context.Context) {
	return func(ctx context.Context) {
		l.mu.Lock()
		l.calls[name]++
		n := l.calls[name]
		if n == 1 {
			l.first[name] = time.Since(l.start)
		}
		l.inFlight++
		l.mu.Unlock()
		if n == 1 {
			l.ran <- name
		}
		if l.holding && n == 2 {
			l.held <- name
			<-ctx.Done()
			time.Sleep(5 * time.Millisecond)
		}
		l.mu.Lock()
		l.inFlight--
		l.mu.Unlock()
	}
}

// runSchedule runs the daemon's table with counting steps, the given period
// per step, until stop returns; then it cancels the runner and returns the
// log once the runner has returned.
func runSchedule(t *testing.T, every map[string]time.Duration, holding bool, stop func(*stepLog)) *stepLog {
	t.Helper()
	l := &stepLog{start: time.Now(), calls: map[string]int{}, first: map[string]time.Duration{},
		ran: make(chan string, len(every)), holding: holding, held: make(chan string, len(every))}
	task := func(name string) loop.Task { return loop.Task{Every: every[name], Step: l.step(name)} }
	bg := background{
		sweep: task("sweep"), sample: task("sample"), checkpoint: task("checkpoint"),
		scrub: task("scrub"), gossip: task("gossip"), repair: task("repair"),
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		loop.Run(ctx, bg.tasks()...)
	}()
	stop(l)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the runner did not return after cancellation")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inFlight != 0 {
		t.Errorf("the runner returned with %d steps still running", l.inFlight)
	}
	return l
}

// TestSchedule checks besteffsd's table of background loops: every step
// with a period runs at it and a period of 0 leaves its step off; the
// density sample and the gossip tick run once before the first period,
// while sweep, checkpoint, scrub and repair wait for it; and the runner
// returns only after every step has returned once it is cancelled.
func TestSchedule(t *testing.T) {
	const ms = time.Millisecond
	every := map[string]time.Duration{
		"sweep": 5 * ms, "sample": 10 * ms, "checkpoint": 10 * ms,
		"scrub": 5 * ms, "gossip": 5 * ms, "repair": 0,
	}
	l := runSchedule(t, every, true, func(l *stepLog) {
		// Every step but repair reaches its second run and holds there.
		for i := 0; i < len(every)-1; i++ {
			<-l.held
		}
	})
	for name, period := range every {
		switch n := l.calls[name]; {
		case period == 0 && n != 0:
			t.Errorf("%s has period 0 and ran %d times", name, n)
		case period > 0 && n != 2:
			t.Errorf("%s ran %d times, want 2 (it holds its second run until cancellation)", name, n)
		}
	}
	for _, name := range []string{"sweep", "checkpoint", "scrub"} {
		if first := l.first[name]; first < every[name] {
			t.Errorf("%s first ran %v after start, before its first period %v", name, first, every[name])
		}
	}

	// With hour-long periods, only the two start-up steps run, once each.
	every = map[string]time.Duration{
		"sweep": time.Hour, "sample": time.Hour, "checkpoint": time.Hour,
		"scrub": time.Hour, "gossip": time.Hour, "repair": time.Hour,
	}
	l = runSchedule(t, every, false, func(l *stepLog) {
		<-l.ran
		<-l.ran
	})
	for name := range every {
		want := 0
		if name == "sample" || name == "gossip" {
			want = 1
		}
		if n := l.calls[name]; n != want {
			t.Errorf("before the first period %s ran %d times, want %d", name, n, want)
		}
	}
}
