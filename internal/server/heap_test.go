package server

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/wire"
)

// residentHeapBudget is the memory a full node may hold per resident, in
// bytes: its live heap plus the payload bytes its memory store keeps mapped
// outside the heap. The count measured when the budget was last cut, plus a
// margin of 8 for the few live bytes the rest of the test binary may hold
// when the heap is read. The count read 389 while every resident held a
// function of its own, 374 when each took its run's, 359 (231 heap and 128
// mapped) once payloads moved into the store's arena, and 343 (215 and 128)
// since an object.Object is 64 bytes rather than 80. Lower it when a change
// makes a resident smaller; raise it only with a reason written beside it.
const residentHeapBudget = 351

// liveHeap returns the heap's live bytes: what two collections leave, the
// second one finishing what the first one's finalizers and pools let go.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResidentHeapBudget fills a node of 4 shards and 2 MiB over the memory
// payload store with BATCH frames of 64 fresh 128 B puts under the three
// functions bench/ annotates with, churns it through eight times its
// resident count, one frame a second, and holds the live heap the node
// keeps, plus the payload bytes its store maps outside the heap, to
// residentHeapBudget per resident. Both counts are exact at any profiling
// rate: runtime.MemStats counts every live byte, and the store every mapped
// one. (Where the store cannot map memory, its chunks are heap and counted
// twice.)
func TestResidentHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const (
		shards   = 4
		capacity = 2 << 20
		size     = 128
		width    = 64
		churn    = 8
	)
	residents := capacity / size
	const day = 24 * time.Hour
	fns := []importance.Function{
		importance.Linear{Start: 1, Expire: day},
		importance.TwoStep{Plateau: 0.6, Persist: day, Wane: day},
		importance.Constant{Level: 0.2},
	}
	payload := make([]byte, size)
	subs := make([]wire.Message, width)
	puts := make([]wire.Put, width)
	var body []byte
	next := 0

	before := liveHeap()
	clock := &manualClock{}
	srv, err := New(EngineConfig{Shards: shards, Capacity: capacity, Policy: policy.TemporalImportance{}},
		WithClock(clock.Now), WithLogger(quietLogger()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	start := time.Now()
	for range churn * residents / width {
		for i := range puts {
			puts[i] = wire.Put{ID: object.ID(fmt.Sprintf("obj-%07d", next)), Importance: fns[next%len(fns)],
				Payload: payload}
			subs[i] = &puts[i]
			next++
		}
		if body, err = wire.AppendEncode(body[:0], &wire.Batch{Subs: subs}); err != nil {
			t.Fatalf("Encode: %v", err)
		}
		clock.Advance(time.Second)
		if _, ok := srv.dispatch(body).resp.(*wire.BatchResult); !ok {
			t.Fatal("a BATCH frame was not answered with a BATCH_RESULT")
		}
	}
	elapsed := time.Since(start)
	clear(puts)
	clear(subs)
	held := srv.Engine().Len()
	live := liveHeap()
	mapped := srv.blobs.(*blob.MemStore).MappedBytes()
	if held < residents*9/10 {
		t.Fatalf("the node holds %d residents, want about %d", held, residents)
	}
	heap := float64(live - before)
	per := (heap + float64(mapped)) / float64(held)
	t.Logf("%d residents after %d frames in %v: %.0f live heap bytes and %d mapped (%.0f + %.0f per resident)",
		held, next/width, elapsed.Round(time.Millisecond), heap, mapped, heap/float64(held), float64(mapped)/float64(held))
	if per > residentHeapBudget {
		t.Errorf("%.0f live and mapped bytes per resident, budget %d", per, residentHeapBudget)
	}
}
