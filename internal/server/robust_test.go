package server

import (
	"context"
	"io"
	"log/slog"
	"net"
	"sync"
	"testing"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/client"
	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
)

// startNodeOpts is startNode with extra server options and a raw address.
func startNodeOpts(t *testing.T, capacity int64, opts ...Option) (*Server, string, context.CancelFunc, chan error) {
	t.Helper()
	// Panics, limit rejections and timeouts are expected here; keep their
	// logs out of the test output.
	quiet := WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	srv, err := New(EngineConfig{Capacity: capacity, Policy: policy.TemporalImportance{}}, append([]Option{quiet}, opts...)...)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, l) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		close(done)
	})
	return srv, l.Addr().String(), cancel, done
}

// noRetry keeps client-side retries out of server behavior tests.
func noRetry() client.Config {
	return client.Config{RequestTimeout: 2 * time.Second}
}

// panicOnceClock panics on its first reading and then runs normally,
// poisoning exactly one request.
type panicOnceClock struct {
	mu      sync.Mutex
	panics  bool
	started time.Time
}

func (c *panicOnceClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.panics {
		c.panics = true
		panic("poisoned request")
	}
	return time.Since(c.started)
}

func TestServerRecoversPanickedHandler(t *testing.T) {
	clock := &panicOnceClock{started: time.Now()}
	srv, addr, _, _ := startNodeOpts(t, 1<<20, WithClock(clock.Now))

	// The first request panics its handler; the connection dies but the
	// server survives.
	c1, err := client.Connect(addr, client.WithTimeout(time.Second), client.WithConfig(noRetry()))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c1.Close()
	if _, err := c1.StatCtx(context.Background()); err == nil {
		t.Fatal("request served by a panicking handler succeeded")
	}

	// A fresh connection works: the panic took down one connection, not
	// the node.
	c2, err := client.Connect(addr, client.WithTimeout(time.Second), client.WithConfig(noRetry()))
	if err != nil {
		t.Fatalf("dial after panic: %v", err)
	}
	defer c2.Close()
	if _, err := c2.StatCtx(context.Background()); err != nil {
		t.Fatalf("Stat after recovered panic: %v", err)
	}
	if got := srv.NetCounters()["panics_recovered"]; got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}
}

func TestServerConnLimit(t *testing.T) {
	srv, addr, _, _ := startNodeOpts(t, 1<<20, WithConnLimit(1))

	c1, err := client.Connect(addr, client.WithTimeout(time.Second), client.WithConfig(noRetry()))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c1.Close()
	if _, err := c1.StatCtx(context.Background()); err != nil {
		t.Fatalf("Stat on first conn: %v", err)
	}

	// The second connection is accepted at TCP level but closed by the
	// server before serving anything.
	c2, err := client.Connect(addr, client.WithTimeout(time.Second), client.WithConfig(noRetry()))
	if err != nil {
		t.Fatalf("dial second: %v", err)
	}
	defer c2.Close()
	if _, err := c2.StatCtx(context.Background()); err == nil {
		t.Fatal("request over the connection limit succeeded")
	}
	if got := srv.NetCounters()["conns_rejected_limit"]; got == 0 {
		t.Error("conns_rejected_limit not counted")
	}

	// Capacity frees up once the first connection closes.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := client.Connect(addr, client.WithTimeout(time.Second), client.WithConfig(noRetry()))
		if err == nil {
			_, err = c3.StatCtx(context.Background())
			c3.Close()
			if err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after closing first connection")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerIdleTimeout(t *testing.T) {
	srv, addr, _, _ := startNodeOpts(t, 1<<20, WithIdleTimeout(50*time.Millisecond))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Say nothing; the server must hang up on us.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection still open after timeout")
	}
	if got := srv.NetCounters()["read_timeouts"]; got != 1 {
		t.Errorf("read_timeouts = %d, want 1", got)
	}
}

// slowBlobStore delays a payload commit, single or grouped, so a request is
// reliably in flight at shutdown.
type slowBlobStore struct {
	blob.Store
	delay time.Duration
}

func (s *slowBlobStore) Put(id object.ID, payload []byte) error {
	time.Sleep(s.delay)
	return s.Store.Put(id, payload)
}

func (s *slowBlobStore) PutBatch(ids []object.ID, payloads [][]byte) error {
	time.Sleep(s.delay)
	return s.Store.PutBatch(ids, payloads)
}

func TestServerDrainFinishesInFlightRequest(t *testing.T) {
	srv, addr, cancel, done := startNodeOpts(t, 1<<20,
		WithBlobStore(&slowBlobStore{Store: blob.NewMemStore(), delay: 300 * time.Millisecond}),
		WithDrainTimeout(5*time.Second))

	c, err := client.Connect(addr, client.WithTimeout(time.Second), client.WithConfig(client.Config{RequestTimeout: 10 * time.Second}))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	type putOut struct {
		res client.PutResult
		err error
	}
	out := make(chan putOut, 1)
	go func() {
		res, err := c.PutCtx(context.Background(), client.PutRequest{
			ID:         "slow",
			Importance: importance.Constant{Level: 0.5},
			Payload:    []byte("worth waiting for"),
		})
		out <- putOut{res, err}
	}()
	time.Sleep(100 * time.Millisecond) // request is now inside the slow blob Put
	cancel()

	got := <-out
	if got.err != nil {
		t.Fatalf("in-flight Put torn by shutdown: %v", got.err)
	}
	if !got.res.Admitted {
		t.Fatalf("in-flight Put result = %+v", got.res)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	done <- nil // let the cleanup's receive succeed
	if got := srv.NetCounters()["conns_force_closed"]; got != 0 {
		t.Errorf("conns_force_closed = %d during clean drain, want 0", got)
	}
}

func TestServerDrainForceClosesStragglers(t *testing.T) {
	srv, addr, cancel, done := startNodeOpts(t, 1<<20,
		WithBlobStore(&slowBlobStore{Store: blob.NewMemStore(), delay: 2 * time.Second}),
		WithDrainTimeout(50*time.Millisecond))

	c, err := client.Connect(addr, client.WithTimeout(time.Second), client.WithConfig(client.Config{RequestTimeout: 10 * time.Second}))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	errCh := make(chan error, 1)
	go func() {
		_, err := c.PutCtx(context.Background(), client.PutRequest{
			ID:         "straggler",
			Importance: importance.Constant{Level: 0.5},
			Payload:    []byte("too slow"),
		})
		errCh <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	done <- nil
	<-errCh // the put may fail or survive on the buffered response; either way Serve returned
	if got := srv.NetCounters()["conns_force_closed"]; got != 1 {
		t.Errorf("conns_force_closed = %d, want 1", got)
	}
}
