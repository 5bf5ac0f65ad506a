package client

// Connection accounting for discovery and dialing: every connection
// DialClusterSeed opens (the discovery probe and the per-node clients) and
// every connection the TLS dial path opens must be closed on both the
// success and the failure paths. The tests count connections on the server
// side of the wire: a client that abandons a socket without closing it
// leaves the server-side half open forever (these test servers run with no
// idle timeout), so "server open count returns to zero" is exactly "the
// client leaked nothing".

import (
	"context"
	"crypto/tls"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"besteffs/internal/member"
	"besteffs/internal/policy"
	"besteffs/internal/secure"
	"besteffs/internal/server"
)

type connCounter struct {
	mu   sync.Mutex
	open int
}

func (cc *connCounter) add(d int) {
	cc.mu.Lock()
	cc.open += d
	cc.mu.Unlock()
}

func (cc *connCounter) Open() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.open
}

type countedConn struct {
	net.Conn
	cc   *connCounter
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.cc.add(-1) })
	return c.Conn.Close()
}

type countedListener struct {
	net.Listener
	cc *connCounter
}

func (l *countedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.cc.add(1)
	return &countedConn{Conn: c, cc: l.cc}, nil
}

// startCountedNode serves one node behind a connection-counting listener.
// With clustered set it carries a membership agent (MEMBERS answers), so
// DialClusterSeed's discovery succeeds; without it MEMBERS errors and the
// discovery fails after the probe connected. A non-nil tlsCfg wraps the
// accept side.
func startCountedNode(t *testing.T, clustered bool, tlsCfg *tls.Config) (string, *connCounter) {
	t.Helper()
	srv, err := server.New(server.EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}},
		server.WithLogger(discardLogger()))
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := raw.Addr().String()
	cc := &connCounter{}
	var l net.Listener = &countedListener{Listener: raw, cc: cc}
	if tlsCfg != nil {
		l = tls.NewListener(l, tlsCfg)
	}
	if clustered {
		agent, err := member.NewAgent(member.Config{
			Addr:   addr,
			Self:   func() (float64, int64, float64) { return 0, 1 << 20, 0 },
			Logger: discardLogger(),
		})
		if err != nil {
			t.Fatalf("member.NewAgent: %v", err)
		}
		srv.SetMembership(agent)
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
	return addr, cc
}

// waitZeroConns polls until the server sees no open connections: the
// server's read loop needs a moment to observe a client close.
func waitZeroConns(t *testing.T, cc *connCounter, what string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cc.Open() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("%s left %d connection(s) open", what, cc.Open())
}

func TestDialClusterSeedClosesAllConnsOnSuccess(t *testing.T) {
	addr, cc := startCountedNode(t, true, nil)
	ctx := context.Background()
	cluster, err := DialClusterSeed(ctx, addr, time.Second, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatalf("DialClusterSeed: %v", err)
	}
	// Exercise a round trip so the lazily-dialed node connection exists.
	if _, err := cluster.AverageDensityCtx(ctx); err != nil {
		t.Fatalf("density: %v", err)
	}
	if err := cluster.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	waitZeroConns(t, cc, "DialClusterSeed success path")
}

func TestDialClusterSeedFailureLeaksNoConns(t *testing.T) {
	// A reachable node without membership: the discovery probe connects,
	// MEMBERS answers an error, and DialClusterSeed must fail with the
	// probe connection closed behind it.
	addr, cc := startCountedNode(t, false, nil)
	_, err := DialClusterSeed(context.Background(), addr, time.Second, rand.New(rand.NewSource(3)))
	if err == nil {
		t.Fatal("DialClusterSeed succeeded against a non-clustered node")
	}
	waitZeroConns(t, cc, "DialClusterSeed failure path")
}

func TestTLSDialAgainstCleartextNodeLeaksNoConns(t *testing.T) {
	// The server speaks cleartext; the client demands TLS. The handshake
	// cannot complete, the dial must fail within its timeout, and the raw
	// socket must be closed -- dialNode's failure path.
	addr, cc := startCountedNode(t, false, nil)
	cert, err := secure.LoadOrCreate(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TLS = secure.ClientConfig(cert, nil)
	start := time.Now()
	_, err = Connect(addr, WithTimeout(500*time.Millisecond), WithConfig(cfg))
	if err == nil {
		t.Fatal("TLS dial against a cleartext server succeeded")
	}
	if !strings.Contains(err.Error(), "handshake") {
		t.Errorf("error %v does not name the handshake", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("dial took %v, want fail-fast within the timeout", elapsed)
	}
	waitZeroConns(t, cc, "TLS-to-cleartext dial")
}

func TestDialClusterSeedOverTLS(t *testing.T) {
	// The whole discovery path over TLS: probe dial, MEMBERS, and the
	// cluster client all inherit the TLS config, and closing the cluster
	// closes every connection.
	serverCert, err := secure.LoadOrCreate(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clientCert, err := secure.LoadOrCreate(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	addr, cc := startCountedNode(t, true, secure.ServerConfig(serverCert, nil))
	cfg := DefaultConfig()
	cfg.TLS = secure.ClientConfig(clientCert, nil)
	ctx := context.Background()
	cluster, err := DialClusterSeed(ctx, addr, time.Second,
		rand.New(rand.NewSource(3)), WithClientConfig(cfg))
	if err != nil {
		t.Fatalf("DialClusterSeed over TLS: %v", err)
	}
	if _, err := cluster.AverageDensityCtx(ctx); err != nil {
		t.Fatalf("density over TLS: %v", err)
	}
	if err := cluster.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	waitZeroConns(t, cc, "TLS cluster discovery")
}
