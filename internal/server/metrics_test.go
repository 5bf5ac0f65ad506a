package server

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"besteffs/internal/client"
	"besteffs/internal/importance"
	"besteffs/internal/policy"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	c, srv, _ := startNode(t, 1000)
	if _, err := c.PutCtx(context.Background(), client.PutRequest{
		ID:         "a",
		Importance: importance.Constant{Level: 0.5},
		Payload:    make([]byte, 400),
	}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := c.StatCtx(context.Background()); err != nil {
		t.Fatalf("Stat: %v", err)
	}

	text := scrape(t, srv.MetricsHandler())
	for _, want := range []string{
		"# TYPE besteffs_density gauge",
		"besteffs_density 0.2",
		"besteffs_importance_boundary 0",
		"besteffs_used_bytes 400",
		"besteffs_admitted_total 1",
		`besteffs_requests_total{op="put"} 1`,
		`besteffs_requests_total{op="stat"} 1`,
		`besteffs_op_latency_seconds_count{op="put"} 1`,
		"# TYPE besteffs_op_latency_seconds histogram",
		"besteffs_conns_accepted_total 1",
		"besteffs_conns_active 1",
		"besteffs_put_object_bytes_count 1",
		"besteffs_traced_requests_total 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}

// lockedBuffer is a goroutine-safe log sink.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func debugLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// TestRequestTracing drives one Put end to end and checks the request ID
// minted by the client shows up in the server's log, and that both sides'
// latency histograms saw the request.
func TestRequestTracing(t *testing.T) {
	var srvLog, cliLog lockedBuffer
	clock := &manualClock{}
	srv, err := New(EngineConfig{Capacity: 1000, Policy: policy.TemporalImportance{}},
		WithClock(clock.Now), WithLogger(debugLogger(&srvLog)))
	if err != nil {
		t.Fatalf("New: %v", err)
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
	c, err := client.Connect(l.Addr().String(), client.WithTimeout(time.Second))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetLogger(debugLogger(&cliLog))

	if _, err := c.PutCtx(context.Background(), client.PutRequest{
		ID:         "traced",
		Importance: importance.Constant{Level: 0.9},
		Payload:    []byte("hello"),
	}); err != nil {
		t.Fatalf("Put: %v", err)
	}

	// The client logged the request with its trace ID...
	m := regexp.MustCompile(`trace=([0-9a-f]+-[0-9a-f]+)`).FindStringSubmatch(cliLog.String())
	if m == nil {
		t.Fatalf("no trace ID in client log:\n%s", cliLog.String())
	}
	id := m[1]
	// ...and the server logged the same ID. The server handler may still be
	// writing the line when Put returns, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(srvLog.String(), id) {
		if time.Now().After(deadline) {
			t.Fatalf("trace %s not in server log:\n%s", id, srvLog.String())
		}
		time.Sleep(time.Millisecond)
	}

	// Both latency histograms saw the Put.
	var text strings.Builder
	if err := srv.Metrics().WriteText(&text); err != nil {
		t.Fatalf("server WriteText: %v", err)
	}
	if !strings.Contains(text.String(), `besteffs_op_latency_seconds_count{op="put"} 1`) {
		t.Errorf("server latency histogram missing put:\n%s", text.String())
	}
	if !strings.Contains(text.String(), "besteffs_traced_requests_total 1") {
		t.Errorf("server traced_requests_total != 1:\n%s", text.String())
	}
	text.Reset()
	if err := c.Metrics().WriteText(&text); err != nil {
		t.Fatalf("client WriteText: %v", err)
	}
	if !strings.Contains(text.String(), `besteffs_client_op_latency_seconds_count{op="put"} 1`) {
		t.Errorf("client latency histogram missing put:\n%s", text.String())
	}
}

// TestSampleNowRecordsBoundaryMoves: the first sample sets the baseline and
// records no event; a later sample flight-records a boundary move of at
// least boundaryEventDelta, and one that stays put records nothing.
func TestSampleNowRecordsBoundaryMoves(t *testing.T) {
	srv, err := New(EngineConfig{Capacity: 1000, Policy: policy.TemporalImportance{}}, WithDensityWindow(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	moves := func() []telemetry.Event {
		var out []telemetry.Event
		for _, e := range srv.Events().Snapshot() {
			if e.Kind == telemetry.EventBoundary {
				out = append(out, e)
			}
		}
		return out
	}
	put := &wire.Put{ID: "full", Importance: importance.Constant{Level: 0.5}, Payload: make([]byte, 1000)}
	if res, ok := srv.execute(put).(*wire.PutResult); !ok || !res.Admitted {
		t.Fatalf("put: %+v", res)
	}
	srv.SampleNow()
	srv.SampleNow()
	if got := moves(); len(got) != 0 {
		t.Fatalf("a baseline at boundary 0.5 and a sample that stayed there recorded %+v", got)
	}
	if res, ok := srv.execute(&wire.Delete{ID: "full"}).(*wire.OK); !ok {
		t.Fatalf("delete: %+v", res)
	}
	srv.SampleNow()
	got := moves()
	if len(got) != 1 || got[0].Boundary != 0.5 || got[0].Importance != 0 {
		t.Errorf("boundary events = %+v, want one move from 0.5 to 0", got)
	}
	if n := len(srv.DensitySamples()); n != 3 {
		t.Errorf("%d samples kept, want 3", n)
	}
}

func TestDensitySamplingLive(t *testing.T) {
	clock := &manualClock{}
	srv, err := New(EngineConfig{Capacity: 1000, Policy: policy.TemporalImportance{}},
		WithClock(clock.Now), WithDensityWindow(32))
	if err != nil {
		t.Fatalf("New: %v", err)
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
	c, err := client.Connect(l.Addr().String(), client.WithTimeout(time.Second))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })

	srv.SampleNow()
	clock.Advance(time.Hour)
	srv.SampleNow()
	history, err := c.DensityHistoryCtx(context.Background())
	if err != nil {
		t.Fatalf("DensityHistory: %v", err)
	}
	if len(history) != 2 {
		t.Fatalf("history = %d samples, want 2", len(history))
	}
}

func TestDensityHistoryOnDemand(t *testing.T) {
	// Without sampling, DENSITY_HISTORY answers with one fresh sample.
	c, _, _ := startNode(t, 1000)
	if _, err := c.PutCtx(context.Background(), client.PutRequest{
		ID:         "a",
		Importance: importance.Constant{Level: 0.5},
		Payload:    make([]byte, 400),
	}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	history, err := c.DensityHistoryCtx(context.Background())
	if err != nil {
		t.Fatalf("DensityHistory: %v", err)
	}
	if len(history) != 1 {
		t.Fatalf("history = %+v, want one on-demand sample", history)
	}
	if history[0].Density != 0.2 || history[0].Used != 400 {
		t.Errorf("sample = %+v, want density 0.2, used 400", history[0])
	}
}
