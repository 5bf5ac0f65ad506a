package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/importance"
	"besteffs/internal/journal"
	"besteffs/internal/loop"
	"besteffs/internal/object"
	"besteffs/internal/wire"
)

// Two writers on one shard. The first is parked inside its commit -- at the
// payload store, after the unit has taken its mutation -- and the second runs
// against it. Whatever order the node serializes them in, three things must
// hold afterwards: every object serves the payload of the last acknowledged
// writer that touched it, the payload index holds exactly the residents, and
// a node restored over the abandoned directory boots and holds the same
// residents.

// gatedStore parks the first commit or drop that names the armed ID until
// released.
type gatedStore struct {
	blob.Store
	mu      sync.Mutex
	armed   object.ID
	entered chan struct{}
	release chan struct{}
}

func (g *gatedStore) park(ids ...object.ID) {
	g.mu.Lock()
	hit := g.armed != "" && slices.Contains(ids, g.armed)
	if hit {
		g.armed = ""
	}
	g.mu.Unlock()
	if hit {
		close(g.entered)
		<-g.release
	}
}

func (g *gatedStore) PutBatch(ids []object.ID, payloads [][]byte) error {
	g.park(ids...)
	return g.Store.PutBatch(ids, payloads)
}

func (g *gatedStore) Delete(id object.ID) error {
	g.park(id)
	return g.Store.Delete(id)
}

// writerWait is how long the second writer gets to finish while the first is
// parked. Under a lock the writers share it finishes at once; under one they
// exclude each other on it cannot, and the wait runs out.
const writerWait = 50 * time.Millisecond

func writerPayload(tag string, size int) []byte {
	return bytes.Repeat([]byte(tag), size/len(tag))
}

func writerPut(id object.ID, level float64, payload []byte) *wire.Put {
	return &wire.Put{ID: id, Owner: "owner", Importance: importance.Constant{Level: level}, Payload: payload}
}

// servedPayloads is what each object should serve, built from the
// acknowledgements in the order they were given.
type servedPayloads map[object.ID][]byte

func (s servedPayloads) ack(req, resp wire.Message) {
	switch m := req.(type) {
	case *wire.Put:
		if r, ok := resp.(*wire.PutResult); ok && r.Admitted {
			for _, id := range r.Evicted {
				delete(s, id)
			}
			s[m.ID] = m.Payload
		}
	case *wire.Replicate:
		if r, ok := resp.(*wire.PutResult); ok && r.Admitted {
			s[m.ID] = m.Payload
		}
	case *wire.Delete:
		if _, ok := resp.(*wire.OK); ok {
			delete(s, m.ID)
		}
	}
}

// blobIDs and residentIDs render the two sides of the payload-index
// invariant, sorted.
func (n *admNode) blobIDs() []object.ID {
	n.t.Helper()
	ids, err := n.files.IDs()
	if err != nil {
		n.t.Fatalf("FileStore.IDs: %v", err)
	}
	slices.Sort(ids)
	return ids
}

func (n *admNode) residentIDs() []object.ID {
	var ids []object.ID
	for _, o := range n.srv.engine.Residents() {
		ids = append(ids, o.ID)
	}
	slices.Sort(ids)
	return ids
}

// residentRecords renders the resident set as recovery must reproduce it:
// ID, version, importance function, arrival, size.
func (n *admNode) residentRecords() []journal.Record {
	var recs []journal.Record
	for _, o := range n.srv.engine.Residents() {
		recs = append(recs, journal.ObjectRecord(o))
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs
}

// restoredOver abandons nothing itself: it boots a fresh node over live's
// directory and checks it against live.
func restoredOver(t *testing.T, live *admNode, boot string) {
	t.Helper()
	again := openWriterNode(t, live.dataDir, live.srv.engine.NumShards(), nil)
	stats, err := again.srv.RestoreDir(live.dataDir)
	if err != nil {
		t.Fatalf("%s: RestoreDir: %v", boot, err)
	}
	if stats.DroppedNoPayload != 0 {
		t.Errorf("%s: dropped %d residents that have no payload", boot, stats.DroppedNoPayload)
	}
	if got, want := again.residentRecords(), live.residentRecords(); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: recovered residents\n%v\nlive residents\n%v", boot, got, want)
	}
	if blobs, residents := again.blobIDs(), again.residentIDs(); !slices.Equal(blobs, residents) {
		t.Errorf("%s: payloads indexed for %v, residents are %v", boot, blobs, residents)
	}
}

// openWriterNode opens an admission-table node with nothing between it and
// its journals, its file store behind gate if there is one.
func openWriterNode(t *testing.T, dataDir string, shards int, gate *gatedStore) *admNode {
	t.Helper()
	n := &admNode{}
	n.open(t, dataDir, shards, func(files blob.Store) blob.Store {
		if gate == nil {
			return files
		}
		gate.Store = files
		return gate
	})
	return n
}

func TestTwoWritersOneShard(t *testing.T) {
	full := admShardCap / 2 // two of these fill the shard
	rows := []struct {
		name   string
		seed   []wire.Message
		parkOn object.ID
		first  wire.Message // parked mid-commit
		second wire.Message // runs against it
	}{
		{
			// The reproducer: a low-importance arrival is admitted into free
			// space, and before its payload commit returns a second writer
			// preempts it.
			name:   "PUT preempted before its commit returns",
			seed:   []wire.Message{writerPut(admE, 0.9, writerPayload("a", full))},
			parkOn: admCheap,
			first:  writerPut(admCheap, 0.2, writerPayload("x", full)),
			second: writerPut(admTarget, 0.9, writerPayload("y", full)),
		},
		{
			name:   "DELETE against a PUT of its ID",
			seed:   []wire.Message{writerPut(admTarget, 0.6, writerPayload("old", 300))},
			parkOn: admTarget,
			first:  &wire.Delete{ID: admTarget},
			second: writerPut(admTarget, 0.6, writerPayload("new", 600)),
		},
		{
			name:   "superseding REPLICATE against a PUT of its ID",
			seed:   []wire.Message{writerPut(admTarget, 0.6, writerPayload("old", 300))},
			parkOn: admTarget,
			first: &wire.Replicate{ID: admTarget, Owner: "owner", Version: 2,
				Importance: importance.Constant{Level: 0.6}, Payload: writerPayload("replica", 700)},
			second: writerPut(admTarget, 0.6, writerPayload("new", 600)),
		},
	}
	for _, shards := range []int{1, 4} {
		for _, row := range rows {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, row.name), func(t *testing.T) {
				gate := &gatedStore{entered: make(chan struct{}), release: make(chan struct{})}
				n := openWriterNode(t, t.TempDir(), shards, gate)
				served := servedPayloads{}
				n.clock.Advance(admSeedsAt)
				for _, m := range row.seed {
					served.ack(m, n.srv.execute(m))
				}
				n.clock.Advance(admEntryAt - admSeedsAt)
				gate.armed = row.parkOn

				firstDone, secondDone := make(chan wire.Message, 1), make(chan wire.Message, 1)
				go func() { firstDone <- n.srv.execute(row.first) }()
				<-gate.entered
				go func() { secondDone <- n.srv.execute(row.second) }()
				timer := time.NewTimer(writerWait)
				defer timer.Stop()
				select {
				case resp := <-secondDone:
					// The second writer overtook the parked first.
					served.ack(row.second, resp)
					close(gate.release)
					served.ack(row.first, <-firstDone)
				case <-timer.C:
					// The second writer waits for the first.
					close(gate.release)
					served.ack(row.first, <-firstDone)
					served.ack(row.second, <-secondDone)
				}

				for _, id := range []object.ID{admTarget, admCheap, admE} {
					var got []byte
					if obj, ok := n.srv.execute(&wire.Get{ID: id}).(*wire.ObjectMsg); ok {
						got = obj.Payload
					}
					if want := served[id]; !bytes.Equal(got, want) {
						t.Errorf("GET %s serves %d bytes %.8q, the last acknowledged writer left %d bytes %.8q",
							id, len(got), got, len(want), want)
					}
				}
				if blobs, residents := n.blobIDs(), n.residentIDs(); !slices.Equal(blobs, residents) {
					t.Errorf("payloads indexed for %v, residents are %v", blobs, residents)
				}
				// Abandon the node -- nothing closed, nothing checkpointed.
				restoredOver(t, n, "boot")
			})
		}
	}
}

// TestWritersStress runs four connections' worth of mixed mutations over 64
// shared IDs on a node a few objects big, beside the expiry sweep and the
// coordinated checkpoint, then abandons the node: recovery must reproduce
// the resident set the live node ended with, and a second recovery the same.
func TestWritersStress(t *testing.T) {
	const (
		writers = 4
		ops     = 150
		ids     = 64
	)
	levels := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			n := openWriterNode(t, t.TempDir(), shards, nil)
			ctx, cancel := context.WithCancel(context.Background())
			background := make(chan struct{})
			go func() {
				defer close(background)
				loop.Run(ctx,
					loop.Task{Every: time.Millisecond, Step: func(context.Context) { n.srv.SweepNow() }},
					loop.Task{Every: time.Millisecond, Step: func(context.Context) {
						if _, err := n.srv.Checkpoint(); err != nil {
							t.Errorf("Checkpoint: %v", err)
						}
					}})
			}()

			var writing sync.WaitGroup
			for w := 0; w < writers; w++ {
				writing.Add(1)
				go func() {
					defer writing.Done()
					rng := rand.New(rand.NewSource(int64(1000*shards + w)))
					id := func() object.ID { return object.ID(fmt.Sprintf("s/%02d", rng.Intn(ids))) }
					imp := func() importance.Function {
						if rng.Intn(4) == 0 {
							// Expires 30 ms of node time after it arrives: the sweep's share.
							return importance.TwoStep{Plateau: 0.8, Persist: 10 * time.Millisecond, Wane: 20 * time.Millisecond}
						}
						return importance.Constant{Level: levels[rng.Intn(len(levels))]}
					}
					payload := func() []byte { return writerPayload("p", 128+rng.Intn(896)) }
					put := func() *wire.Put {
						return &wire.Put{ID: id(), Owner: "owner", Importance: imp(), Payload: payload()}
					}
					for op := 0; op < ops; op++ {
						n.clock.Advance(time.Millisecond)
						var msg wire.Message
						switch k := rng.Intn(20); {
						case k < 7:
							msg = put()
						case k < 9:
							msg = &wire.Batch{Subs: []wire.Message{put(), put(), &wire.Delete{ID: id()}, put()}}
						case k < 12:
							msg = &wire.Update{ID: id(), Owner: "owner", Importance: imp(), Payload: payload()}
						case k < 14:
							msg = &wire.Delete{ID: id()}
						case k < 16:
							msg = &wire.Rejuvenate{ID: id(), Importance: imp()}
						default:
							msg = &wire.Replicate{ID: id(), Owner: "owner", Version: uint32(1 + rng.Intn(4)),
								Importance: imp(), AgeNanos: int64(rng.Intn(5)) * int64(time.Millisecond), Payload: payload()}
						}
						n.srv.execute(msg)
					}
				}()
			}
			writing.Wait()
			cancel()
			<-background

			if n.srv.engine.Len() == 0 {
				t.Fatal("the stress left no resident to recover")
			}
			if blobs, residents := n.blobIDs(), n.residentIDs(); !slices.Equal(blobs, residents) {
				t.Errorf("payloads indexed for %v, residents are %v", blobs, residents)
			}
			// Abandon the node -- nothing closed -- and boot twice over it.
			restoredOver(t, n, "first boot")
			restoredOver(t, n, "second boot")
		})
	}
}
