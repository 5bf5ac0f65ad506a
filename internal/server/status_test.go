package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"besteffs/internal/client"
	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

func TestStatusHandler(t *testing.T) {
	c, srv, clock := startNode(t, 1000)
	if _, err := c.PutCtx(context.Background(), client.PutRequest{
		ID:         "a",
		Importance: importance.Constant{Level: 0.5},
		Payload:    make([]byte, 400),
	}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	clock.Advance(day)

	ts := httptest.NewServer(srv.StatusHandler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if st.Capacity != 1000 || st.Used != 400 || st.Free != 600 || st.Objects != 1 {
		t.Errorf("status = %+v", st)
	}
	if st.Density != 0.2 { // 400 bytes at 0.5 over 1000
		t.Errorf("density = %v, want 0.2", st.Density)
	}
	if st.Policy != "temporal-importance" {
		t.Errorf("policy = %q", st.Policy)
	}
	if st.Counters.Admitted != 1 {
		t.Errorf("counters = %+v", st.Counters)
	}

	// Snapshots are point-in-time: never cache them.
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", cc)
	}
	// Connection traffic shows up in the net counters.
	if st.Net["conns_accepted"] < 1 {
		t.Errorf("net counters = %v, want conns_accepted >= 1", st.Net)
	}
	if _, ok := st.Net["conns_active"]; !ok {
		t.Errorf("net counters = %v, want conns_active present", st.Net)
	}

	// HEAD gets the same headers and no body.
	head, err := http.Head(ts.URL)
	if err != nil {
		t.Fatalf("HEAD: %v", err)
	}
	head.Body.Close()
	if head.StatusCode != http.StatusOK {
		t.Errorf("HEAD status = %d, want 200", head.StatusCode)
	}
	if ct := head.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("HEAD content type = %q", ct)
	}
	if cc := head.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("HEAD Cache-Control = %q, want no-store", cc)
	}

	// Non-GET/HEAD is rejected.
	post, err := http.Post(ts.URL, "text/plain", nil)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", post.StatusCode)
	}
	if allow := post.Header.Get("Allow"); allow != "GET, HEAD" {
		t.Errorf("Allow = %q, want \"GET, HEAD\"", allow)
	}
}

func TestStatusDensityHistory(t *testing.T) {
	// A node without sampling omits the field entirely.
	plain, err := New(EngineConfig{Capacity: 1000, Policy: policy.TemporalImportance{}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if raw, err := json.Marshal(plain.StatusSnapshot()); err != nil {
		t.Fatalf("marshal: %v", err)
	} else if strings.Contains(string(raw), "density_history") {
		t.Errorf("status without sampling mentions density_history: %s", raw)
	}

	// With sampling enabled, recorded samples surface in the snapshot.
	clock := &manualClock{}
	srv, err := New(EngineConfig{Capacity: 1000, Policy: policy.TemporalImportance{}},
		WithClock(clock.Now), WithDensityWindow(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.samples.Record(srv.engine.SampleAt(clock.Now()))
	clock.Advance(day)
	srv.samples.Record(srv.engine.SampleAt(clock.Now()))
	st := srv.StatusSnapshot()
	if len(st.DensityHistory) != 2 {
		t.Fatalf("density_history = %+v, want 2 samples", st.DensityHistory)
	}
	if st.DensityHistory[0].At != 0 || st.DensityHistory[1].At != day {
		t.Errorf("sample times = %v, %v; want 0, %v",
			st.DensityHistory[0].At, st.DensityHistory[1].At, day)
	}
}

// TestStatusShards pins the status JSON's per-shard array: one entry per
// shard whatever the count, N = 1 included, and entries that add up to the
// merged top-level fields.
func TestStatusShards(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, err := New(EngineConfig{Capacity: 4000, Policy: policy.TemporalImportance{}, Shards: shards},
				WithLogger(quietLogger()))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			for i := 0; i < 12; i++ {
				put := &wire.Put{ID: object.ID(fmt.Sprintf("obj-%02d", i)),
					Importance: importance.Constant{Level: 0.1 * float64(i%9+1)}, Payload: make([]byte, 50+10*i)}
				if res, ok := srv.execute(put).(*wire.PutResult); !ok || !res.Admitted {
					t.Fatalf("put %s: %+v", put.ID, res)
				}
			}
			raw, err := json.Marshal(srv.StatusSnapshot())
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var st Status
			if err := json.Unmarshal(raw, &st); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if len(st.Shards) != shards {
				t.Fatalf("shards array has %d entries, want %d: %s", len(st.Shards), shards, raw)
			}
			var capacity, used, free int64
			var objects int
			var weighted float64
			for i, sh := range st.Shards {
				if sh.Shard != i {
					t.Errorf("entry %d names shard %d", i, sh.Shard)
				}
				capacity += sh.Capacity
				used += sh.Used
				free += sh.Free
				objects += int(sh.Objects)
				weighted += sh.Density * float64(sh.Capacity)
			}
			if capacity != st.Capacity || used != st.Used || free != st.Free || objects != st.Objects {
				t.Errorf("shard sums capacity=%d used=%d free=%d objects=%d, merged %d/%d/%d/%d",
					capacity, used, free, objects, st.Capacity, st.Used, st.Free, st.Objects)
			}
			if got := weighted / float64(capacity); math.Abs(got-st.Density) > 1e-12 {
				t.Errorf("capacity-weighted shard density %v, merged %v", got, st.Density)
			}
		})
	}
}

// TestStatusJSONPinned pins the bytes-level shape of the status JSON's
// records: the merged capacity, usage and density values; the key set and
// values of each shards entry; the key set and value kinds of counters, of
// each density_history sample and of each flight-recorder event, with event
// times in RFC 3339 (nanoseconds), kinds as mnemonics and zero optional
// fields left out.
func TestStatusJSONPinned(t *testing.T) {
	clock := &manualClock{}
	srv, err := New(EngineConfig{Capacity: 1000, Policy: policy.TemporalImportance{}},
		WithClock(clock.Now), WithDensityWindow(4), WithLogger(quietLogger()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	put := &wire.Put{ID: "a", Importance: importance.Constant{Level: 0.5}, Payload: make([]byte, 400)}
	if res, ok := srv.execute(put).(*wire.PutResult); !ok || !res.Admitted {
		t.Fatalf("put: %+v", res)
	}
	srv.samples.Record(srv.engine.SampleAt(clock.Now()))
	clock.Advance(day)
	srv.samples.Record(srv.engine.SampleAt(clock.Now()))
	srv.Events().Record(telemetry.Event{Kind: telemetry.EventMemberUp, Peer: "10.0.0.9:7070"})
	srv.Events().Record(telemetry.Event{Kind: telemetry.EventEvict, ID: "b", Trace: "t-1",
		Importance: 0.5, Boundary: 0.25, Detail: "swept"})

	raw, err := json.Marshal(srv.StatusSnapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	// keysOf returns obj's keys, sorted, and fails unless every value is a
	// JSON number except those named in strs, which must be strings.
	keysOf := func(what string, v any, strs ...string) []string {
		t.Helper()
		obj, ok := v.(map[string]any)
		if !ok {
			t.Fatalf("%s is %T, want an object: %s", what, v, raw)
		}
		var keys []string
		for k, val := range obj {
			keys = append(keys, k)
			_, isStr := val.(string)
			_, isNum := val.(float64)
			if want := slices.Contains(strs, k); want != isStr || !want && !isNum {
				t.Errorf("%s.%s = %#v (%T): wrong kind", what, k, val, val)
			}
		}
		sort.Strings(keys)
		return keys
	}
	requireKeys := func(what string, got []string, want ...string) {
		t.Helper()
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s keys = %v, want %v", what, got, want)
		}
	}

	// requireValues fails unless obj holds want's values, read as JSON
	// numbers.
	requireValues := func(what string, v any, want map[string]float64) {
		t.Helper()
		obj := v.(map[string]any)
		for k, w := range want {
			if obj[k] != w {
				t.Errorf("%s.%s = %v, want %v", what, k, obj[k], w)
			}
		}
	}

	now := clock.Now()
	requireValues("status", doc, map[string]float64{
		"capacity_bytes": float64(srv.engine.Capacity()), "used_bytes": float64(srv.engine.Used()),
		"free_bytes": float64(srv.engine.Free()), "objects": float64(srv.engine.Len()),
		"density": srv.engine.DensityAt(now)})
	if doc["used_bytes"] != 400.0 || doc["objects"] != 1.0 {
		t.Errorf("used_bytes = %v, objects = %v, want 400 and 1", doc["used_bytes"], doc["objects"])
	}
	shardDocs, _ := doc["shards"].([]any)
	if len(shardDocs) != srv.engine.NumShards() {
		t.Fatalf("shards = %v, want %d entries", doc["shards"], srv.engine.NumShards())
	}
	for i, sd := range shardDocs {
		requireKeys("shards entry", keysOf("shards entry", sd),
			"shard", "capacity_bytes", "used_bytes", "free_bytes", "objects", "density", "boundary")
		u := srv.engine.Shard(i)
		sm := u.SampleAt(now)
		requireValues(fmt.Sprintf("shards[%d]", i), sd, map[string]float64{
			"shard": float64(i), "capacity_bytes": float64(u.Capacity()), "used_bytes": float64(sm.Used),
			"free_bytes": float64(u.Capacity() - sm.Used), "objects": float64(u.Len()),
			"density": sm.Density, "boundary": sm.Boundary})
	}

	requireKeys("counters", keysOf("counters", doc["counters"]),
		"admitted", "rejected", "evicted", "deleted", "admitted_bytes", "evicted_bytes")
	if n := doc["counters"].(map[string]any)["admitted"]; n != 1.0 {
		t.Errorf("counters.admitted = %v, want 1", n)
	}

	history, _ := doc["density_history"].([]any)
	if len(history) != 2 {
		t.Fatalf("density_history = %v, want 2 samples", doc["density_history"])
	}
	for i, want := range []float64{0, float64(day)} {
		requireKeys("density_history", keysOf("density_history", history[i]), "at_nanos", "density", "used_bytes", "boundary")
		if at := history[i].(map[string]any)["at_nanos"]; at != want {
			t.Errorf("density_history[%d].at_nanos = %v, want %v", i, at, want)
		}
	}

	events, _ := doc["events"].([]any)
	held := srv.Events().Snapshot()
	if len(events) != len(held) || len(events) < 3 {
		t.Fatalf("events = %v, the recorder holds %d", doc["events"], len(held))
	}
	tail := events[len(events)-2:]
	requireKeys("member-up event", keysOf("event", tail[0], "at", "kind", "peer"),
		"seq", "at", "kind", "peer")
	requireKeys("evict event", keysOf("event", tail[1], "at", "kind", "id", "trace", "detail"),
		"seq", "at", "kind", "id", "trace", "importance", "boundary", "detail")
	for i, v := range events {
		e := v.(map[string]any)
		at, err := time.Parse(time.RFC3339Nano, e["at"].(string))
		if err != nil || !at.Equal(held[i].Wall) {
			t.Errorf("events[%d].at = %v (%v), want %v", i, e["at"], err, held[i].Wall)
		}
		if e["kind"] != held[i].Kind.String() || e["seq"] != float64(held[i].Seq) {
			t.Errorf("events[%d] = %v, want kind %q seq %d", i, e, held[i].Kind, held[i].Seq)
		}
	}
	if k := tail[0].(map[string]any)["kind"]; k != "member-up" {
		t.Errorf("kind = %v, want member-up", k)
	}
}
