package server

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"besteffs/internal/client"
	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// recordFields flattens one record to field name -> value, reading times as
// Unix nanoseconds, durations, kinds and counts of any width as int64,
// slices of records as slices of flattened records, and dropping a
// "UnixNanos" or "Nanos" suffix from the name, so a node's record and the
// copy a client read back compare field by field and to the nanosecond. A
// pointer is flattened as the record it points to.
func recordFields(v any) map[string]any {
	rv := reflect.Indirect(reflect.ValueOf(v))
	out := make(map[string]any, rv.NumField())
	for i := 0; i < rv.NumField(); i++ {
		name := rv.Type().Field(i).Name
		name = strings.TrimSuffix(strings.TrimSuffix(name, "UnixNanos"), "Nanos")
		out[name] = fieldValue(rv.Field(i))
	}
	return out
}

// fieldValue is one field as recordFields reads it.
func fieldValue(f reflect.Value) any {
	if tm, ok := f.Interface().(time.Time); ok {
		return tm.UnixNano()
	}
	switch f.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return f.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return int64(f.Uint())
	case reflect.Slice:
		if f.Type().Elem().Kind() == reflect.Struct {
			recs := make([]map[string]any, f.Len())
			for i := range recs {
				recs[i] = recordFields(f.Index(i).Interface())
			}
			return recs
		}
	}
	return f.Interface()
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
	srv, addr, _, _ := startNodeOpts(t, 1000, WithClock(clock.Now), WithDensityWindow(8))
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
	// Three samples at distinct times.
	srv.SampleNow()
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

// requireAnswer fails unless every field want names reads back from got
// equal to the node's own value (see recordFields).
func requireAnswer(t *testing.T, what string, got any, want map[string]any) {
	t.Helper()
	gf := recordFields(got)
	for name, w := range want {
		if g, ok := gf[name]; !ok || !reflect.DeepEqual(g, w) {
			t.Errorf("%s.%s read back as %#v, the node holds %#v", what, name, g, w)
		}
	}
}

// TestAnswerRoundTrip reads a node's STAT, GET and PUT answers through the
// client, on one shard and on four, and requires each to equal the node's
// own values field by field: the per-shard breakdown, the object's age to
// the nanosecond and its current importance, the payload, and the put
// verdicts' boundaries and evicted IDs as the flight recorder logged them.
func TestAnswerRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			clock := &manualClock{}
			srv, err := New(EngineConfig{Capacity: 1000 * int64(shards), Policy: policy.TemporalImportance{}, Shards: shards},
				WithClock(clock.Now), WithLogger(quietLogger()))
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
			bg := context.Background()

			// Three residents share the home shard of "big"; one more
			// object sits on every other shard.
			home := srv.engine.Home("big")
			var residents []object.ID
			for i := 0; len(residents) < 3; i++ {
				if id := object.ID(fmt.Sprintf("r%d", i)); srv.engine.Home(id) == home {
					residents = append(residents, id)
				}
			}
			others := map[int]object.ID{}
			for i := 0; len(others) < shards-1; i++ {
				if id := object.ID(fmt.Sprintf("o%d", i)); srv.engine.Home(id) != home {
					others[srv.engine.Home(id)] = id
				}
			}
			payloads := map[object.ID][]byte{}
			put := func(id object.ID, imp importance.Function, size int) client.PutResult {
				t.Helper()
				payloads[id] = bytes.Repeat([]byte(id), size)[:size]
				res, err := c.PutCtx(bg, client.PutRequest{ID: id, Owner: "owner-" + string(id), Class: object.Class(2),
					Importance: imp, Payload: payloads[id]})
				if err != nil {
					t.Fatalf("put %s: %v", id, err)
				}
				clock.Advance(time.Hour)
				return res
			}
			for i, id := range residents {
				put(id, importance.TwoStep{Plateau: 0.9 - 0.2*float64(i), Persist: day, Wane: 10 * day}, 300)
			}
			for _, id := range others {
				put(id, importance.Linear{Start: 0.7, Expire: 20 * day}, 150)
			}
			clock.Advance(2*day + 17)
			now := clock.Now()

			st, err := c.StatCtx(bg)
			if err != nil {
				t.Fatalf("stat: %v", err)
			}
			var perShard []map[string]any
			for i := 0; i < shards; i++ {
				u := srv.engine.Shard(i)
				sm := u.SampleAt(now)
				perShard = append(perShard, map[string]any{"Capacity": u.Capacity(), "Used": sm.Used,
					"Objects": int64(u.Len()), "Density": sm.Density, "Boundary": sm.Boundary})
			}
			stat := map[string]any{"Capacity": srv.engine.Capacity(), "Used": srv.engine.Used(),
				"Objects": int64(srv.engine.Len()), "Density": srv.engine.DensityAt(now), "Shards": perShard}
			if len(recordFields(st)) != len(stat) {
				t.Errorf("stat reads back %v, the node's view has %d fields", recordFields(st), len(stat))
			}
			requireAnswer(t, "stat", st, stat)

			for _, id := range residents {
				got, err := c.GetCtx(bg, id)
				if err != nil {
					t.Fatalf("get %s: %v", id, err)
				}
				o, err := srv.engine.Get(id)
				if err != nil {
					t.Fatalf("engine get %s: %v", id, err)
				}
				obj := map[string]any{"ID": o.ID, "Owner": o.Owner(), "Class": int64(o.Class), "Version": int64(o.Version),
					"Importance": o.Importance, "Age": int64(o.Age(now)), "CurrentImportance": o.ImportanceAt(now),
					"Payload": payloads[id]}
				if len(recordFields(got)) != len(obj) {
					t.Errorf("get %s reads back %v, the node's object has %d fields", id, recordFields(got), len(obj))
				}
				requireAnswer(t, "get "+string(id), got, obj)
			}

			// verdict is the node's own record of the put just made: its
			// admit or reject event and the evictions logged before it.
			verdict := func(before int) map[string]any {
				t.Helper()
				var evicted []object.ID
				for _, e := range srv.Events().Snapshot()[before:] {
					switch e.Kind {
					case telemetry.EventEvict:
						evicted = append(evicted, object.ID(e.ID))
					case telemetry.EventAdmit, telemetry.EventReject:
						return map[string]any{"Admitted": e.Kind == telemetry.EventAdmit, "Boundary": e.Boundary, "Evicted": evicted}
					}
				}
				t.Fatal("the put recorded no verdict")
				return nil
			}
			before := len(srv.Events().Snapshot())
			admitted := put("big", importance.Constant{Level: 0.95}, 650)
			want := verdict(before)
			if ev, _ := want["Evicted"].([]object.ID); len(ev) != 2 || want["Boundary"].(float64) <= 0 {
				t.Fatalf("the scenario should preempt two residents: %v", want)
			}
			requireAnswer(t, "put big", admitted, want)

			before = len(srv.Events().Snapshot())
			rejected := put("low", importance.Constant{Level: 0.01}, 900)
			want = verdict(before)
			if want["Admitted"].(bool) || want["Boundary"].(float64) <= 0 {
				t.Fatalf("the scenario should reject at a positive boundary: %v", want)
			}
			requireAnswer(t, "put low", rejected, want)
		})
	}
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

// TestAdmissionGroupReadsTheClockOnce: the admit and evict events of one
// shard's admission group carry the one wall-clock time the group read, in
// Seq order as before, and an eviction outside a group -- here an update's
// superseded version -- is stamped as it is recorded.
func TestAdmissionGroupReadsTheClockOnce(t *testing.T) {
	const width, size = 8, 100
	clock := &manualClock{}
	srv, err := New(EngineConfig{Capacity: width * size, Policy: policy.TemporalImportance{}},
		WithClock(clock.Now), WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	imp := importance.Linear{Start: 1, Expire: 24 * time.Hour}
	batch := func(prefix string) []telemetry.Event {
		t.Helper()
		subs := make([]wire.Message, width)
		for i := range subs {
			subs[i] = &wire.Put{ID: object.ID(fmt.Sprintf("%s/%d", prefix, i)), Importance: imp, Payload: make([]byte, size)}
		}
		body, err := wire.Encode(&wire.Batch{Subs: subs})
		if err != nil {
			t.Fatal(err)
		}
		before := srv.Events().Len()
		clock.Advance(time.Second)
		if _, ok := srv.dispatch(body).resp.(*wire.BatchResult); !ok {
			t.Fatal("the BATCH was not answered with a BATCH_RESULT")
		}
		return srv.Events().Snapshot()[before:]
	}
	batch("fill")
	evs := batch("next") // every put preempts one of the fill
	evicts := 0
	for i, e := range evs {
		if e.Kind == telemetry.EventEvict {
			evicts++
		}
		if e.Wall.IsZero() || !e.Wall.Equal(evs[0].Wall) {
			t.Errorf("event %d (%s %s) at %v, the group's first at %v", i, e.Kind, e.ID, e.Wall, evs[0].Wall)
		}
		if i > 0 && e.Seq != evs[i-1].Seq+1 {
			t.Errorf("event %d has Seq %d after %d", i, e.Seq, evs[i-1].Seq)
		}
	}
	if evicts != width || len(evs) != 2*width {
		t.Fatalf("%d events, %d evictions; want %d and %d", len(evs), evicts, 2*width, width)
	}
	if sh := srv.shards[0]; !sh.wall.IsZero() {
		t.Errorf("the shard kept the group's wall time %v", sh.wall)
	}

	before := srv.Events().Len()
	upd, err := wire.Encode(&wire.Update{ID: "next/0", Importance: imp, Payload: make([]byte, size)})
	if err != nil {
		t.Fatal(err)
	}
	srv.dispatch(upd)
	for _, e := range srv.Events().Snapshot()[before:] {
		if e.Wall.IsZero() {
			t.Errorf("the update's %s event of %s is not stamped", e.Kind, e.ID)
		}
	}
	if srv.Events().Len() == before {
		t.Error("the update recorded no event")
	}
}
