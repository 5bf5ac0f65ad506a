package server

import (
	"context"
	"log/slog"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"besteffs/internal/client"
	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/telemetry"
)

// recordFields flattens one record to field name -> value, reading times as
// Unix nanoseconds, durations and kinds as integers, and dropping a
// "UnixNanos" or "Nanos" suffix from the name, so a ring's record and the
// copy a client read back compare field by field and to the nanosecond.
func recordFields(v any) map[string]any {
	rv := reflect.ValueOf(v)
	out := make(map[string]any, rv.NumField())
	for i := 0; i < rv.NumField(); i++ {
		name := rv.Type().Field(i).Name
		name = strings.TrimSuffix(strings.TrimSuffix(name, "UnixNanos"), "Nanos")
		f := rv.Field(i)
		if tm, ok := f.Interface().(time.Time); ok {
			out[name] = tm.UnixNano()
			continue
		}
		switch f.Kind() {
		case reflect.Int64:
			out[name] = f.Int()
		case reflect.Uint8, reflect.Uint64:
			out[name] = f.Uint()
		default:
			out[name] = f.Interface()
		}
	}
	return out
}

// requireSameRecords fails unless got and want hold the same records in the
// same order, field by field (see recordFields).
func requireSameRecords(t *testing.T, what string, got, want any) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	if g.Len() != w.Len() || w.Len() == 0 {
		t.Fatalf("%s: read back %d records, the ring holds %d (want a non-empty match)", what, g.Len(), w.Len())
	}
	for i := 0; i < w.Len(); i++ {
		gf, wf := recordFields(g.Index(i).Interface()), recordFields(w.Index(i).Interface())
		if !reflect.DeepEqual(gf, wf) {
			t.Errorf("%s %d read back as\n %v\nthe ring holds\n %v", what, i, gf, wf)
		}
	}
}

// TestTelemetryRoundTrip reads a node's three observability rings through
// the client -- TRACE_DUMP, EVENTS and DENSITY_HISTORY -- and requires what
// arrives to equal what the rings hold, every field, times to the
// nanosecond.
func TestTelemetryRoundTrip(t *testing.T) {
	clock := &manualClock{}
	srv, addr, _, _ := startNodeOpts(t, 1000, WithClock(clock.Now), WithDensitySampling(time.Hour, 8))
	c, err := client.Connect(addr, client.WithTimeout(time.Second))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	bg := context.Background()
	traced := telemetry.NewContext(bg, telemetry.NewRoot())
	for i, id := range []object.ID{"a", "b", "c"} {
		clock.Advance(time.Hour)
		ctx := bg
		if i != 1 {
			ctx = traced
		}
		if _, err := c.PutCtx(ctx, client.PutRequest{
			ID: id, Importance: importance.Constant{Level: 0.25 * float64(i+1)}, Payload: make([]byte, 300),
		}); err != nil {
			t.Fatalf("put %s: %v", id, err)
		}
	}
	// The sampler takes its first sample when Serve starts; add two more
	// at distinct times.
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.DensitySamples()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the sampler took no startup sample")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		clock.Advance(day)
		srv.samples.Record(srv.engine.SampleAt(clock.Now()))
	}
	srv.Events().Record(telemetry.Event{Kind: telemetry.EventReplicaPush, ID: "a", Peer: "10.0.0.9:7070",
		Trace: "t-1", Detail: "admitted"})

	dump, err := c.TraceDumpCtx(bg, "")
	if err != nil {
		t.Fatalf("TraceDump: %v", err)
	}
	requireSameRecords(t, "span", dump.Spans, srv.spans.Snapshot())
	events, err := c.EventsCtx(bg, 0)
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	requireSameRecords(t, "event", events.Events, srv.Events().Snapshot())
	history, err := c.DensityHistoryCtx(bg)
	if err != nil {
		t.Fatalf("DensityHistory: %v", err)
	}
	requireSameRecords(t, "sample", history, srv.DensitySamples())
}

// captureHandler keeps every record logged through it.
type captureHandler struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *captureHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *captureHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recs = append(h.recs, r.Clone())
	return nil
}

func (h *captureHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *captureHandler) WithGroup(string) slog.Handler      { return h }

// slow returns the attributes of every "slow request" record so far.
func (h *captureHandler) slow() []map[string]slog.Value {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []map[string]slog.Value
	for _, r := range h.recs {
		if r.Message != "slow request" || r.Level != slog.LevelWarn {
			continue
		}
		attrs := make(map[string]slog.Value)
		r.Attrs(func(a slog.Attr) bool {
			attrs[a.Key] = a.Value
			return true
		})
		out = append(out, attrs)
	}
	return out
}

// TestSlowRequestLog pins what the slow log prints: an untraced request
// crossing -slow-threshold logs its op, duration and remote address; a
// traced one adds its trace, the span count and the span tree the local
// ring holds for it.
func TestSlowRequestLog(t *testing.T) {
	h := &captureHandler{}
	_, addr, _, _ := startNodeOpts(t, 1000, WithSlowThreshold(time.Nanosecond), WithLogger(slog.New(h)))
	c, err := client.Connect(addr, client.WithTimeout(time.Second))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	put := func(ctx context.Context, id object.ID) {
		t.Helper()
		if _, err := c.PutCtx(ctx, client.PutRequest{
			ID: id, Importance: importance.Constant{Level: 0.5}, Payload: []byte("slow"),
		}); err != nil {
			t.Fatalf("put %s: %v", id, err)
		}
	}
	put(context.Background(), "untraced")
	root := telemetry.NewRoot()
	put(telemetry.NewContext(context.Background(), root), "traced")

	logs := h.slow()
	if len(logs) != 2 {
		t.Fatalf("logged %d slow requests, want 2: %v", len(logs), logs)
	}
	for i, attrs := range logs {
		if op := attrs["op"].String(); op != "PUT" {
			t.Errorf("record %d: op = %q, want PUT", i, op)
		}
		if v, ok := attrs["dur"]; !ok || v.Kind() != slog.KindDuration || v.Duration() <= 0 {
			t.Errorf("record %d: dur = %v, want a positive duration", i, v)
		}
		if v, ok := attrs["remote"]; !ok || !strings.HasPrefix(v.String(), "127.0.0.1:") {
			t.Errorf("record %d: remote = %v, want the client's address", i, v)
		}
	}
	untraced, tracedLog := logs[0], logs[1]
	for _, key := range []string{"trace", "spans", "tree"} {
		if _, ok := untraced[key]; ok {
			t.Errorf("untraced record carries %q: %v", key, untraced)
		}
	}
	if got := tracedLog["trace"].String(); got != root.Trace {
		t.Errorf("trace = %q, want %q", got, root.Trace)
	}
	if v := tracedLog["spans"]; v.Kind() != slog.KindInt64 || v.Int64() != 1 {
		t.Errorf("spans = %v, want 1", v)
	}
	if tree := tracedLog["tree"].String(); !strings.Contains(tree, " put peer=127.0.0.1:") || !strings.Contains(tree, "(admitted)") {
		t.Errorf("tree does not name the put hop and its verdict:\n%s", tree)
	}
}
