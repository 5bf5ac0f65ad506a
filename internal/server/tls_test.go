package server

// Transport-security negative paths: an unknown client certificate must be
// refused during the TLS handshake -- before a single opcode reaches the
// dispatcher -- and a cleartext client against a TLS node must fail fast
// instead of hanging. Both are asserted through the server's own request
// counters: zero requests dispatched means the refusal happened at the
// session layer, not in the protocol.

import (
	"context"
	"net"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	ctls "crypto/tls"

	"besteffs/internal/client"
	"besteffs/internal/importance"
	"besteffs/internal/policy"
	"besteffs/internal/secure"
)

// startTLSServer serves one node behind a TLS listener and returns its
// address plus the server (for metrics assertions).
func startTLSServer(t *testing.T, tcfg *ctls.Config) (string, *Server) {
	t.Helper()
	srv, err := New(EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}}, WithLogger(quietLogger()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := l.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ctls.NewListener(l, tcfg)) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return addr, srv
}

// requestsDispatched sums every besteffs_requests_total counter from the
// server's metrics exposition.
func requestsDispatched(t *testing.T, srv *Server) int64 {
	t.Helper()
	var b strings.Builder
	if err := srv.Metrics().WriteText(&b); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	re := regexp.MustCompile(`(?m)^besteffs_requests_total\{[^}]*\} (\d+)$`)
	var total int64
	for _, m := range re.FindAllStringSubmatch(b.String(), -1) {
		n, err := strconv.ParseInt(m[1], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", m[1], err)
		}
		total += n
	}
	return total
}

func TestTLSUnknownClientCertRefusedBeforeDispatch(t *testing.T) {
	serverCert, err := secure.LoadOrCreate(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	intruderCert, err := secure.LoadOrCreate(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Pin the allowlist to a device that is not the intruder.
	addr, srv := startTLSServer(t,
		secure.ServerConfig(serverCert, secure.NewAllowlist("trusted-device-id")))

	cfg := client.DefaultConfig()
	cfg.TLS = secure.ClientConfig(intruderCert, nil)
	cfg.MaxRetries = 0
	c, err := client.Connect(addr, client.WithTimeout(time.Second), client.WithConfig(cfg))
	if err == nil {
		// Under TLS 1.3 the dial itself can complete before the server
		// verifies the client certificate; the first request must then fail.
		_, err = c.PutCtx(context.Background(), client.PutRequest{
			ID:         "intruder/put",
			Importance: importance.Constant{Level: 1},
			Payload:    []byte("x"),
		})
		c.Close()
	}
	if err == nil {
		t.Fatal("unknown client certificate was served")
	}
	if got := requestsDispatched(t, srv); got != 0 {
		t.Errorf("%d request(s) dispatched for an unauthenticated client, want 0", got)
	}
}

func TestCleartextClientAgainstTLSServerFailsFast(t *testing.T) {
	serverCert, err := secure.LoadOrCreate(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	addr, srv := startTLSServer(t, secure.ServerConfig(serverCert, nil))

	cfg := client.DefaultConfig()
	cfg.MaxRetries = 0 // fail fast: the session can never be established
	start := time.Now()
	c, err := client.Connect(addr, client.WithTimeout(time.Second), client.WithConfig(cfg))
	if err == nil {
		// The TCP connect succeeds; the first frame hits the TLS record
		// layer and the server tears the connection down.
		_, err = c.PutCtx(context.Background(), client.PutRequest{
			ID:         "cleartext/put",
			Importance: importance.Constant{Level: 1},
			Payload:    []byte("x"),
		})
		c.Close()
	}
	if err == nil {
		t.Fatal("cleartext client was served by a TLS node")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cleartext-vs-TLS failure took %v, want fail-fast", elapsed)
	}
	if got := requestsDispatched(t, srv); got != 0 {
		t.Errorf("%d request(s) dispatched from a cleartext client, want 0", got)
	}
}
