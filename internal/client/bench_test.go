package client

// BenchmarkWirePut measures what the pipelined protocol buys on loopback:
// the same fresh-ID put issued serially (one round trip per op), pipelined
// from 64 goroutines over one connection, and batched 64 per BATCH frame.
// BENCH_wire.json at the repo root records the numbers; the CI bench-smoke
// job runs each case once to keep them compiling and honest, and
// TestWirePutAllocationBudgets holds single and batch64 to their
// allocations per put.

import (
	"context"
	"crypto/tls"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/secure"
	"besteffs/internal/server"
)

// benchID hands out process-unique object IDs so every put is a fresh
// admission no matter how many times the harness re-runs a case. Built with
// strconv, not fmt, so harness overhead stays small next to the ~10us
// round trips being measured.
var benchID atomic.Uint64

func nextBenchID() object.ID {
	var buf [24]byte
	b := append(buf[:0], "bench-"...)
	b = strconv.AppendUint(b, benchID.Add(1), 10)
	return object.ID(b)
}

// benchPayload is shared across puts: the client never mutates a request
// payload (the wire encoder copies it into the frame), so one slice serves
// every concurrent worker without a per-op allocation.
var benchPayload = make([]byte, 128)

// startBenchNode serves one huge node (free space never runs out, so
// admission never ranks residents) and returns its address.
func startBenchNode(b testing.TB) string {
	b.Helper()
	srv, err := server.New(server.EngineConfig{Capacity: 1 << 40, Policy: policy.TemporalImportance{}},
		server.WithLogger(discardLogger()))
	if err != nil {
		b.Fatalf("server.New: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, l) }()
	b.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			b.Errorf("Serve: %v", err)
		}
	})
	return l.Addr().String()
}

// startBenchNodeTLS is startBenchNode behind a mutually-authenticated TLS
// listener; it returns the address and a ready client-side TLS config.
func startBenchNodeTLS(b testing.TB) (string, *tls.Config) {
	b.Helper()
	serverCert, err := secure.LoadOrCreate(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	clientCert, err := secure.LoadOrCreate(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	clientID, err := secure.IDFromTLSCert(clientCert)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.EngineConfig{Capacity: 1 << 40, Policy: policy.TemporalImportance{}},
		server.WithLogger(discardLogger()))
	if err != nil {
		b.Fatalf("server.New: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	tl := tls.NewListener(l, secure.ServerConfig(serverCert,
		secure.NewAllowlist(clientID)))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, tl) }()
	b.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			b.Errorf("Serve: %v", err)
		}
	})
	return l.Addr().String(), secure.ClientConfig(clientCert, nil)
}

func benchPut() PutRequest {
	return PutRequest{
		ID:         nextBenchID(),
		Importance: importance.Constant{Level: 0.5},
		Payload:    benchPayload,
	}
}

// wirePutWindow is the in-flight window of the pipelined and batched cases.
const wirePutWindow = 64

func BenchmarkWirePut(b *testing.B) {
	b.Run("single", benchWirePutSingle)
	b.Run("pipelined64", benchWirePutPipelined)
	b.Run("batch64", benchWirePutBatch)
}

func benchWirePutSingle(b *testing.B) {
	addr := startBenchNode(b)
	c, err := Connect(addr, WithTimeout(time.Second))
	if err != nil {
		b.Fatalf("Connect: %v", err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.PutCtx(context.Background(), benchPut()); err != nil {
			b.Fatalf("put: %v", err)
		}
	}
}

func benchWirePutPipelined(b *testing.B) {
	addr := startBenchNode(b)
	c, err := Connect(addr, WithTimeout(time.Second), WithWindow(wirePutWindow))
	if err != nil {
		b.Fatalf("Connect: %v", err)
	}
	defer c.Close()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < wirePutWindow; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := c.PutCtx(context.Background(), benchPut()); err != nil {
					b.Errorf("put: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func benchWirePutBatch(b *testing.B) {
	addr := startBenchNode(b)
	c, err := Connect(addr, WithTimeout(time.Second), WithMaxBatchSubs(wirePutWindow))
	if err != nil {
		b.Fatalf("Connect: %v", err)
	}
	defer c.Close()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := wirePutWindow
		if rest := b.N - done; rest < n {
			n = rest
		}
		reqs := make([]PutRequest, n)
		for i := range reqs {
			reqs[i] = benchPut()
		}
		if _, err := c.PutBatch(context.Background(), reqs); err != nil {
			b.Fatalf("put batch: %v", err)
		}
		done += n
	}
}

// raceEnabled is set under -race (race_test.go), whose instrumentation
// allocates on its own account.
var raceEnabled bool

// TestWirePutAllocationBudgets holds BenchmarkWirePut's single and batch64
// cases to their allocations per put, which -benchmem counts
// deterministically: the server, client and wire codec together. The
// budgets are the counts measured when each case was last cut (recorded in
// BENCH_wire.json); raise one only with a reason written beside it.
func TestWirePutAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		name   string
		run    func(*testing.B)
		budget int64
	}{
		{"single", benchWirePutSingle, 16},
		{"batch64", benchWirePutBatch, 5},
	} {
		r := testing.Benchmark(tc.run)
		if r.N == 0 {
			t.Fatalf("%s: the benchmark failed", tc.name)
		}
		t.Logf("%s: %d allocs/op over %d puts", tc.name, r.AllocsPerOp(), r.N)
		if r.AllocsPerOp() > tc.budget {
			t.Errorf("%s: %d allocs/op, budget %d", tc.name, r.AllocsPerOp(), tc.budget)
		}
	}
}

// BenchmarkWirePutTLS is the pipelined64 case over mutual-auth TLS: the
// handshake is paid once at Connect, so the steady-state cost is the
// per-record AES-GCM framing. The acceptance bar is staying within ~15%
// of the cleartext pipelined64 number.
func BenchmarkWirePutTLS(b *testing.B) {
	const window = 64
	addr, tcfg := startBenchNodeTLS(b)
	c, err := Connect(addr, WithTimeout(time.Second), WithWindow(window), WithTLS(tcfg))
	if err != nil {
		b.Fatalf("Connect: %v", err)
	}
	defer c.Close()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < window; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := c.PutCtx(context.Background(), benchPut()); err != nil {
					b.Errorf("put: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkWirePutSharded measures what keyspace sharding buys on a
// saturated node. Unlike BenchmarkWirePut's never-full store, this node's
// capacity is tiny next to the offered load, so every put pays the real
// reclamation path: select the shard's cheapest residents by current
// importance, preempt them, admit. That cost is one O(n) pass over the
// shard's resident count, so 4 shards cut each admission's pass to a
// quarter of the keyspace on top of letting the four connections take
// four different shard locks; next to the round trip the pass is small,
// so on one core the two configurations are close. The CI bench-smoke job
// runs shards=1 against shards=4 at GOMAXPROCS=4 and fails if shards=4 is
// more than 10% slower; BENCH_wire.json records both.
func BenchmarkWirePutSharded(b *testing.B) {
	const (
		conns    = 4
		capacity = 128 << 10 // ~4096 residents of 32 bytes, all read on every put
		prefill  = capacity / 32
	)
	// Linearly waning importance keeps the resident set strictly ordered by
	// arrival: every fresh put outranks the oldest resident, so admissions
	// preempt rather than bounce off the boundary.
	imp := importance.Linear{Start: 1, Expire: importance.Day}
	payload := make([]byte, 32)
	put := func() PutRequest {
		return PutRequest{ID: nextBenchID(), Importance: imp, Payload: payload}
	}
	for _, shards := range []int{1, 4} {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			srv, err := server.New(server.EngineConfig{
				Capacity: capacity, Policy: policy.TemporalImportance{}, Shards: shards,
			}, server.WithLogger(discardLogger()))
			if err != nil {
				b.Fatalf("server.New: %v", err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatalf("listen: %v", err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- srv.Serve(ctx, l) }()
			b.Cleanup(func() {
				cancel()
				if err := <-done; err != nil {
					b.Errorf("Serve: %v", err)
				}
			})

			clients := make([]*Client, conns)
			for i := range clients {
				c, err := Connect(l.Addr().String(), WithTimeout(5*time.Second), WithMaxBatchSubs(64))
				if err != nil {
					b.Fatalf("Connect: %v", err)
				}
				clients[i] = c
				defer c.Close()
			}

			// Saturate before timing so iteration one already ranks a full
			// resident set.
			for filled := 0; filled < prefill; {
				n := 64
				if rest := prefill - filled; rest < n {
					n = rest
				}
				reqs := make([]PutRequest, n)
				for i := range reqs {
					reqs[i] = put()
				}
				if _, err := clients[0].PutBatch(context.Background(), reqs); err != nil {
					b.Fatalf("prefill: %v", err)
				}
				filled += n
			}

			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < conns; w++ {
				wg.Add(1)
				go func(c *Client) {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := c.PutCtx(context.Background(), put()); err != nil {
							b.Errorf("put: %v", err)
							return
						}
					}
				}(clients[w])
			}
			wg.Wait()
		})
	}
}
