package server

import (
	"fmt"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/wire"
)

// raceEnabled is set under -race (race_test.go), whose instrumentation
// allocates on its own account.
var raceEnabled bool

// batchDispatchBudget is what one 64 x 1 KiB BATCH frame may allocate when
// it is dispatched into a full node: the count measured when the budget was
// last cut. Raise it only with a reason written beside it.
const batchDispatchBudget = 135

// TestBatchDispatchAllocationBudget dispatches 64 x 1 KiB BATCH frames, one
// at a time and one second apart, into a node of one shard full with 256 one
// KiB residents -- the batch_pipeline workload's shape, where every sub-put
// preempts the oldest resident -- and holds a frame's allocations to
// batchDispatchBudget. It counts the whole server side of a BATCH round
// trip but the connection's read and write: decoding the frame, admitting
// its puts against one view snapshot, dropping the victims' payloads and
// storing the arrivals', the flight recorder's events and the response.
func TestBatchDispatchAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const (
		width     = 64
		size      = 1024
		residents = 256
		runs      = 40
	)
	clock := &manualClock{}
	srv, err := New(EngineConfig{Capacity: residents * size, Policy: policy.TemporalImportance{}},
		WithClock(clock.Now), WithLogger(quietLogger()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	imp := importance.Linear{Start: 1, Expire: 24 * time.Hour}
	payload := make([]byte, size)
	next := 0
	frame := func() []byte {
		subs := make([]wire.Message, width)
		for i := range subs {
			subs[i] = &wire.Put{ID: object.ID(fmt.Sprintf("obj-%06d", next)), Importance: imp, Payload: payload}
			next++
		}
		body, err := wire.Encode(&wire.Batch{Subs: subs})
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		return body
	}
	// Every run's frame is encoded up front, so the count is the node's.
	frames := make([][]byte, residents/width+runs+1)
	for i := range frames {
		frames[i] = frame()
	}
	evictions := 0
	// One session for every frame, as one connection keeps one.
	ss := new(session)
	dispatch := func() {
		clock.Advance(time.Second)
		res, ok := srv.dispatchGroup(ss, frames[:1])[0].resp.(*wire.BatchResult)
		frames = frames[1:]
		if !ok || len(res.Results) != width {
			evictions = -1 << 30
			return
		}
		for _, sub := range res.Results {
			if pr, ok := sub.(*wire.PutResult); ok && pr.Admitted {
				evictions += len(pr.Evicted)
			}
		}
	}
	for range residents / width {
		dispatch()
	}
	if evictions != 0 || srv.Engine().Shard(0).Len() != residents {
		t.Fatalf("the prefill left %d residents after %d evictions, want %d and none",
			srv.Engine().Shard(0).Len(), evictions, residents)
	}
	allocs := testing.AllocsPerRun(runs, dispatch)
	if want := (runs + 1) * width; evictions != want {
		t.Fatalf("%d BATCH frames preempted %d residents, want one per sub-put (%d)", runs+1, evictions, want)
	}
	t.Logf("%.0f allocs per 64 x 1 KiB BATCH frame", allocs)
	if allocs > batchDispatchBudget {
		t.Errorf("%.0f allocs per BATCH frame, budget %d", allocs, batchDispatchBudget)
	}
}
