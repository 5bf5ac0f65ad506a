package client

// Pipelining under fire: the mux must keep per-request outcomes exact when
// the connection dies mid-stream, reconnect like the serial client did, and
// never leak its writer/reader goroutines.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"besteffs/internal/faultnet"
	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/server"
	"besteffs/internal/wire"
)

// discardLogger silences a fault-riddled server's error log.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// guardGoroutines fails the test when goroutines outlive it. Register it
// FIRST so its cleanup runs after every server and client cleanup.
func guardGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutines leaked: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// startFaultyNode serves one node behind a fault-injecting listener and
// returns its address plus a second, clean listener address on the same
// store for verification.
func startFaultyNode(t *testing.T, inj *faultnet.Injector, capacity int64) (faulty, clean string) {
	t.Helper()
	srv, err := server.New(server.EngineConfig{Capacity: capacity, Policy: policy.TemporalImportance{}},
		server.WithLogger(discardLogger()))
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var addrs [2]string
	var done [2]chan error
	for i, wrap := range []bool{true, false} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		addrs[i] = l.Addr().String()
		if wrap {
			l = inj.Listener(l)
		}
		ch := make(chan error, 1)
		done[i] = ch
		go func(l net.Listener, ch chan error) { ch <- srv.Serve(ctx, l) }(l, ch)
	}
	t.Cleanup(func() {
		cancel()
		for _, ch := range done {
			if err := <-ch; err != nil {
				t.Errorf("Serve: %v", err)
			}
		}
	})
	return addrs[0], addrs[1]
}

// TestPipelinedConcurrentPuts drives 64 goroutines through one connection:
// every request must get its own correct answer.
func TestPipelinedConcurrentPuts(t *testing.T) {
	guardGoroutines(t)
	nodes := startLiveNodes(t, 1, 1<<24)
	c, err := Connect(nodes[0].addr, WithConfig(fastConfig()), WithWindow(64))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	defer c.Close()

	const workers, each = 64, 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*each)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := object.ID(fmt.Sprintf("w%02d-%02d", w, i))
				res, err := c.PutCtx(context.Background(), PutRequest{
					ID: id, Importance: importance.Constant{Level: 0.5},
					Payload: []byte(string(id)),
				})
				if err != nil {
					errs <- fmt.Errorf("put %s: %w", id, err)
					return
				}
				if !res.Admitted {
					errs <- fmt.Errorf("put %s rejected", id)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	ids, err := c.ListCtx(context.Background())
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(ids) != workers*each {
		t.Errorf("stored %d objects, want %d", len(ids), workers*each)
	}
}

// TestPipelineResetFailsOnlyUnacked resets the server side of the stream
// after a byte budget. Requests answered before the reset keep their real
// outcomes; requests in flight fail -- and every sub-request the client saw
// admitted is durably present, checked over a clean connection.
func TestPipelineResetFailsOnlyUnacked(t *testing.T) {
	guardGoroutines(t)
	// ~30 bytes per put response: the budget cuts the stream after
	// roughly a dozen answers.
	inj := faultnet.NewInjector(41, faultnet.Plan{ResetAfterBytes: 400})
	faulty, clean := startFaultyNode(t, inj, 1<<24)

	cfg := fastConfig()
	cfg.MaxRetries = 0 // failures must surface, not heal
	cfg.Window = 64
	c, err := Connect(faulty, WithTimeout(time.Second), WithConfig(cfg))
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()

	const total = 48
	type outcome struct {
		admitted bool
		err      error
	}
	outs := make([]outcome, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.PutCtx(context.Background(), PutRequest{
				ID:         object.ID(fmt.Sprintf("obj%02d", i)),
				Importance: importance.Constant{Level: 0.5},
				Payload:    []byte{byte(i)},
			})
			outs[i] = outcome{admitted: err == nil && res.Admitted, err: err}
		}()
	}
	wg.Wait()

	acked, failed := 0, 0
	for _, o := range outs {
		if o.err != nil {
			failed++
		} else if o.admitted {
			acked++
		}
	}
	if acked == 0 {
		t.Fatal("reset killed every request; budget too small to observe acks")
	}
	if failed == 0 {
		t.Fatal("no request failed; budget too large to observe the reset")
	}
	if inj.Counters()["resets"] == 0 {
		t.Fatalf("no reset injected: %v", inj.Counters())
	}

	// Every acknowledged put is durable, visible over the clean listener.
	v, err := Connect(clean, WithTimeout(time.Second))
	if err != nil {
		t.Fatalf("Dial clean: %v", err)
	}
	defer v.Close()
	for i, o := range outs {
		if !o.admitted {
			continue
		}
		id := object.ID(fmt.Sprintf("obj%02d", i))
		if _, err := v.GetCtx(context.Background(), id); err != nil {
			t.Errorf("acked %s lost: %v", id, err)
		}
	}
}

// TestPipelineReconnectsAfterReset keeps MaxRetries on: resets keep killing
// the connection, the client keeps redialing, and every request eventually
// lands.
func TestPipelineReconnectsAfterReset(t *testing.T) {
	guardGoroutines(t)
	inj := faultnet.NewInjector(43, faultnet.Plan{ResetAfterBytes: 300})
	faulty, _ := startFaultyNode(t, inj, 1<<24)
	c, err := Connect(faulty, WithTimeout(time.Second), WithConfig(fastConfig()))
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()

	for i := 0; i < 30; i++ {
		res, err := c.PutCtx(context.Background(), PutRequest{
			ID:         object.ID(fmt.Sprintf("retry%02d", i)),
			Importance: importance.Constant{Level: 0.5},
			Payload:    []byte{byte(i)},
		})
		// Retries are at-least-once (see Config.MaxRetries): a reset that
		// eats the ack of an applied put surfaces as ErrDuplicate on the
		// retry, which still proves the put landed.
		if errors.Is(err, ErrDuplicate) {
			continue
		}
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if !res.Admitted {
			t.Fatalf("put %d rejected", i)
		}
	}
	if c.Counters()["reconnects"] == 0 {
		t.Errorf("resets never forced a reconnect: %v", c.Counters())
	}
}

// TestPipelineContextCancellation: cancelling a context abandons that
// request without waiting on the server; an already-cancelled context does
// not even send.
func TestPipelineContextCancellation(t *testing.T) {
	guardGoroutines(t)
	clientEnd, serverEnd := net.Pipe()
	// A silent server: swallows frames, never answers.
	go func() {
		for {
			if _, err := wire.ReadFrame(serverEnd); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() { serverEnd.Close() })
	c := NewClient(clientEnd)
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := c.StatCtx(ctx)
		got <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the wire
	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled StatCtx err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled request never returned")
	}

	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := c.StatCtx(pre); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled StatCtx err = %v, want context.Canceled", err)
	}
}

// TestPipelineRequestTimeoutPoisonsConn: a request that never gets an
// answer times out, and the timeout reports through every request sharing
// the doomed connection.
func TestPipelineRequestTimeout(t *testing.T) {
	guardGoroutines(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	// A silent node: swallows frames, never answers.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				for {
					if _, err := wire.ReadFrame(conn); err != nil {
						return
					}
				}
			}()
		}
	}()
	c, err := Connect(l.Addr().String(), WithConfig(Config{RequestTimeout: 50 * time.Millisecond}))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		l.Close()
		wg.Wait()
	})

	if _, err := c.StatCtx(context.Background()); err == nil {
		t.Fatal("request against a silent server succeeded")
	}
}

// TestOutOfOrderAnswerPoisonsMux: a node answers each connection in arrival
// order, so an answer echoing any sequence but the oldest request's means
// the stream is lost. Both requests fail instead of being matched.
func TestOutOfOrderAnswerPoisonsMux(t *testing.T) {
	guardGoroutines(t)
	clientEnd, serverEnd := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer serverEnd.Close()
		var seqs []uint64
		for len(seqs) < 2 {
			body, err := wire.ReadFrame(serverEnd)
			if err != nil {
				return
			}
			_, tr, err := wire.DecodeWithTrailers(body)
			if err != nil || !tr.HasSeq {
				t.Errorf("request frame: seq %v, err %v", tr.HasSeq, err)
				return
			}
			seqs = append(seqs, tr.Seq)
		}
		for i := len(seqs) - 1; i >= 0; i-- {
			body, err := wire.Encode(&wire.StatResult{Capacity: 1})
			if err != nil {
				t.Errorf("encode: %v", err)
				return
			}
			if err := wire.WriteFrame(serverEnd, wire.AppendSeq(body, seqs[i])); err != nil {
				return
			}
		}
	}()
	c := NewClient(clientEnd)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.StatCtx(context.Background())
		}(i)
	}
	wg.Wait()
	c.Close()
	<-served
	for i, err := range errs {
		if err == nil {
			t.Errorf("request %d succeeded on a stream answered out of order", i)
		}
	}
}
