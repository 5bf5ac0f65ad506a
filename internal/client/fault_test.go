package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"besteffs/internal/faultnet"
	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/server"
)

// fastConfig keeps retry/backoff latency out of test runtime.
func fastConfig() Config {
	return Config{
		RequestTimeout: 2 * time.Second,
		MaxRetries:     2,
		BackoffBase:    2 * time.Millisecond,
		BackoffMax:     10 * time.Millisecond,
	}
}

// liveNode is one test server whose lifetime the test controls.
type liveNode struct {
	addr   string
	srv    *server.Server
	cancel context.CancelFunc
	done   chan error
	once   sync.Once
}

// startLiveNodes launches n killable servers.
func startLiveNodes(t *testing.T, n int, capacity int64) []*liveNode {
	t.Helper()
	nodes := make([]*liveNode, n)
	for i := 0; i < n; i++ {
		srv, err := server.New(server.EngineConfig{Capacity: capacity, Policy: policy.TemporalImportance{}})
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
		node := &liveNode{addr: l.Addr().String(), srv: srv, cancel: cancel, done: done}
		t.Cleanup(func() { node.kill(t) })
		nodes[i] = node
	}
	return nodes
}

// kill stops the node; killing twice is safe.
func (n *liveNode) kill(t *testing.T) {
	t.Helper()
	n.once.Do(func() {
		n.cancel()
		if err := <-n.done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
}

func addrsOf(nodes []*liveNode) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.addr
	}
	return out
}

// TestClusterClientSurvivesNodeKill is the PR's acceptance scenario: kill 1
// of 5 live nodes mid-run and placement keeps succeeding on the remaining
// nodes, with the failure visible in the cluster's robustness counters and
// the survivors' status endpoints.
func TestClusterClientSurvivesNodeKill(t *testing.T) {
	nodes := startLiveNodes(t, 5, 1<<20)
	cc, err := DialCluster(addrsOf(nodes), time.Second, rand.New(rand.NewSource(11)),
		WithClientConfig(fastConfig()))
	if err != nil {
		t.Fatalf("DialCluster: %v", err)
	}
	defer cc.Close()
	cc.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	cc.FailureThreshold = 1
	cc.EjectFor = 50 * time.Millisecond

	put := func(id string) error {
		_, err := cc.PutCtx(context.Background(), PutRequest{
			ID:         object.ID(id),
			Importance: importance.Constant{Level: 0.5},
			Payload:    make([]byte, 128),
		})
		return err
	}
	for i := 0; i < 10; i++ {
		if err := put(fmt.Sprintf("before%02d", i)); err != nil {
			t.Fatalf("Put before kill: %v", err)
		}
	}

	// Kill one node mid-run, then keep writing concurrently. Node 0 is
	// always sampled first (empty nodes admit at boundary zero, so
	// placement commits on the first probe), which makes it the node
	// every Put would otherwise depend on.
	nodes[0].kill(t)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := put(fmt.Sprintf("after-w%d-%02d", w, i)); err != nil {
					t.Errorf("Put after kill (w%d, %d): %v", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	counters := cc.Counters()
	if counters["probe_failures"] == 0 && counters["retries"] == 0 {
		t.Errorf("no failures recorded after node kill: %v", counters)
	}
	if counters["node_ejections"] == 0 {
		t.Errorf("dead node never ejected: %v", counters)
	}

	// Every object written after the kill is retrievable from survivors.
	for w := 0; w < 3; w++ {
		for i := 0; i < 10; i++ {
			id := object.ID(fmt.Sprintf("after-w%d-%02d", w, i))
			if _, err := cc.GetCtx(context.Background(), id); err != nil {
				t.Errorf("Get %s: %v", id, err)
			}
		}
	}

	// A survivor's status endpoint surfaces its connection counters.
	status := httptest.NewServer(nodes[1].srv.StatusHandler())
	defer status.Close()
	resp, err := status.Client().Get(status.URL)
	if err != nil {
		t.Fatalf("status GET: %v", err)
	}
	defer resp.Body.Close()
	var snap struct {
		Net map[string]int64 `json:"net"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	if snap.Net["conns_accepted"] == 0 {
		t.Errorf("status net counters missing: %v", snap.Net)
	}
}

// TestClusterClientAllNodesDead reports ErrNoHealthyNodes, not a hang.
func TestClusterClientAllNodesDead(t *testing.T) {
	nodes := startLiveNodes(t, 2, 1<<20)
	cc, err := DialCluster(addrsOf(nodes), time.Second, rand.New(rand.NewSource(13)),
		WithClientConfig(fastConfig()))
	if err != nil {
		t.Fatalf("DialCluster: %v", err)
	}
	defer cc.Close()
	cc.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	cc.FailureThreshold = 1
	for _, n := range nodes {
		n.kill(t)
	}
	_, err = cc.PutCtx(context.Background(), PutRequest{
		ID:         "doomed",
		Importance: importance.Constant{Level: 0.5},
		Payload:    make([]byte, 16),
	})
	if !errors.Is(err, ErrNoHealthyNodes) && !errors.Is(err, ErrNotConnected) {
		t.Errorf("Put with all nodes dead err = %v, want ErrNoHealthyNodes", err)
	}
}

// TestDialClusterQuorum starts with a partial cluster; the missing node's
// client dials it once it comes up.
func TestDialClusterQuorum(t *testing.T) {
	nodes := startLiveNodes(t, 2, 1<<20)
	// Reserve an address that is not listening yet.
	hold, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	lateAddr := hold.Addr().String()
	hold.Close()

	addrs := append(addrsOf(nodes), lateAddr)
	// Strict mode still refuses a partial cluster.
	if _, err := DialCluster(addrs, 200*time.Millisecond, rand.New(rand.NewSource(17))); err == nil {
		t.Fatal("strict DialCluster succeeded with a dead address")
	}
	// Quorum mode starts on the healthy subset.
	cc, err := DialCluster(addrs, 200*time.Millisecond, rand.New(rand.NewSource(17)),
		WithQuorum(2), WithClientConfig(fastConfig()))
	if err != nil {
		t.Fatalf("DialCluster with quorum: %v", err)
	}
	defer cc.Close()
	cc.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	cc.FailureThreshold = 1
	cc.EjectFor = 20 * time.Millisecond

	if err := func() error {
		_, err := cc.PutCtx(context.Background(), PutRequest{
			ID:         "early",
			Importance: importance.Constant{Level: 0.5},
			Payload:    make([]byte, 16),
		})
		return err
	}(); err != nil {
		t.Fatalf("Put on partial cluster: %v", err)
	}

	// Bring the late node up; its client dials it on the next request.
	srv, err := server.New(server.EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	l, err := net.Listen("tcp", lateAddr)
	if err != nil {
		t.Skipf("late address %s no longer free: %v", lateAddr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, l) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("late Serve: %v", err)
		}
	})

	// The late node answers a STAT through the cluster once its circuit
	// lets traffic through again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if c := cc.ready(2); c != nil {
			if _, err := c.StatCtx(context.Background()); err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("late node never answered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cc.Counters()["reconnects"] == 0 {
		t.Errorf("late node's first dial not counted as a reconnect: %v", cc.Counters())
	}
}

// dropIdle makes a test node close every connection that sends no request
// for d, as besteffsd's -req-timeout does.
func dropIdle(d time.Duration) server.Option { return server.WithReqTimeout(d) }

// startDroppingNode serves one node that drops connections idle for 50 ms,
// and returns its address plus how long to wait for a drop to land.
func startDroppingNode(t *testing.T) (addr string, drop time.Duration) {
	t.Helper()
	const idle = 50 * time.Millisecond
	srv, err := server.New(server.EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}},
		dropIdle(idle), server.WithLogger(discardLogger()))
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
	})
	return l.Addr().String(), 5 * idle
}

// statAfterDrop connects with cfg, answers one STAT, lets the node drop the
// idle connection, and returns the second STAT's error.
func statAfterDrop(t *testing.T, cfg Config) (*Client, error) {
	t.Helper()
	addr, drop := startDroppingNode(t)
	c, err := Connect(addr, WithTimeout(time.Second), WithConfig(cfg))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.StatCtx(context.Background()); err != nil {
		t.Fatalf("Stat before the drop: %v", err)
	}
	time.Sleep(drop)
	_, err = c.StatCtx(context.Background())
	return c, err
}

// TestClientReconnectsAfterReset: the node drops the connection; the next
// request reconnects and succeeds, and the reconnect is counted.
func TestClientReconnectsAfterReset(t *testing.T) {
	c, err := statAfterDrop(t, fastConfig())
	if err != nil {
		t.Fatalf("Stat after connection drop: %v", err)
	}
	if c.Counters()["reconnects"] == 0 {
		t.Errorf("no reconnect recorded: %v", c.Counters())
	}
}

// TestNoRetryClientReconnectsAfterDrop: MaxRetries 0 forbids retrying a
// request that failed, not dialing a connection the node dropped while the
// client was idle -- the client knows its node's address.
func TestNoRetryClientReconnectsAfterDrop(t *testing.T) {
	if _, err := statAfterDrop(t, Config{RequestTimeout: 2 * time.Second}); err != nil {
		t.Fatalf("MaxRetries 0 client after an idle drop: %v", err)
	}
}

// TestDropCostsNoRetry: a request finding its connection dropped redials
// before it is sent, so it spends no retry and sleeps no backoff.
func TestDropCostsNoRetry(t *testing.T) {
	c, err := statAfterDrop(t, DefaultConfig())
	if err != nil {
		t.Fatalf("Stat after an idle drop: %v", err)
	}
	if got := c.Counters(); got["retries"] != 0 || got["reconnects"] != 1 {
		t.Errorf("first request after a drop: retries %d, reconnects %d; want 0 and 1",
			got["retries"], got["reconnects"])
	}
}

// TestConcurrentRequestsShareOneRedial: requests that find the dropped
// connection together wait for one redial and all ride it.
func TestConcurrentRequestsShareOneRedial(t *testing.T) {
	addr, drop := startDroppingNode(t)
	c, err := Connect(addr, WithTimeout(time.Second), WithConfig(fastConfig()))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	defer c.Close()
	if _, err := c.StatCtx(context.Background()); err != nil {
		t.Fatalf("Stat before the drop: %v", err)
	}
	time.Sleep(drop)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.StatCtx(context.Background()); err != nil {
				t.Errorf("Stat after the drop: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := c.Counters(); got["retries"] != 0 || got["reconnects"] != 1 {
		t.Errorf("8 requests after a drop: retries %d, reconnects %d; want 0 and 1",
			got["retries"], got["reconnects"])
	}
}

// TestClientThroughFaultyConn drives a client/server pair through a
// fault-injecting pipe and checks the client surfaces injected faults as
// errors instead of hanging (the deadline path).
func TestClientThroughFaultyConn(t *testing.T) {
	srv, err := server.New(server.EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}})
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
	})

	inj := faultnet.NewInjector(23, faultnet.Plan{TearRate: 0.5, MaxDelay: time.Millisecond})
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c := NewClient(inj.Conn(raw))
	defer c.Close()

	sawError := false
	for i := 0; i < 20; i++ {
		_, err := c.StatCtx(context.Background())
		if err != nil {
			sawError = true
			break
		}
	}
	if !sawError {
		t.Error("50% tear rate never surfaced an error in 20 requests")
	}
}

// TestBackoffStaysInRangeAtEveryAttempt walks attempts far past the point
// where BackoffBase << attempt overflows int64 (attempt 38 at the default
// 50 ms base): every pause is non-negative, no attempt panics, and a pause
// never exceeds BackoffMax when a cap is set.
func TestBackoffStaysInRangeAtEveryAttempt(t *testing.T) {
	capped := DefaultConfig()
	uncapped := DefaultConfig()
	uncapped.BackoffMax = 0
	for _, cfg := range []Config{capped, uncapped} {
		for attempt := 0; attempt <= 100; attempt++ {
			d := backoff(cfg, attempt)
			if d < 0 {
				t.Fatalf("BackoffMax %v, attempt %d: backoff %v < 0", cfg.BackoffMax, attempt, d)
			}
			if cfg.BackoffMax > 0 && d > cfg.BackoffMax {
				t.Fatalf("BackoffMax %v, attempt %d: backoff %v above the cap", cfg.BackoffMax, attempt, d)
			}
		}
	}
}
