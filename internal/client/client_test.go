package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/server"
)

const day = importance.Day

// startNodes launches n servers with the given capacity and returns
// connected clients.
func startNodes(t *testing.T, n int, capacity int64) []*Client {
	t.Helper()
	clients := make([]*Client, n)
	for i := 0; i < n; i++ {
		srv, err := server.New(server.EngineConfig{Capacity: capacity, Policy: policy.TemporalImportance{}})
		if err != nil {
			t.Fatalf("server.New: %v", err)
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
		c, err := Connect(l.Addr().String(), WithTimeout(time.Second))
		if err != nil {
			t.Fatalf("dial node %d: %v", i, err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	return clients
}

func TestClusterClientPlacesAcrossNodes(t *testing.T) {
	clients := startNodes(t, 5, 1000)
	cc, err := NewClusterClient(clients, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("NewClusterClient: %v", err)
	}
	seen := make(map[int]bool)
	for i := 0; i < 20; i++ {
		p, err := cc.PutCtx(context.Background(), PutRequest{
			ID:         object.ID(fmt.Sprintf("o%02d", i)),
			Importance: importance.Constant{Level: 0.5},
			Payload:    make([]byte, 200),
		})
		if err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		seen[p.Node] = true
	}
	if len(seen) < 2 {
		t.Errorf("placements used %d nodes, want spread", len(seen))
	}
	// Every object is retrievable through the cluster.
	for i := 0; i < 20; i++ {
		id := object.ID(fmt.Sprintf("o%02d", i))
		got, err := cc.GetCtx(context.Background(), id)
		if err != nil {
			t.Fatalf("Get %s: %v", id, err)
		}
		if got.ID != id || len(got.Payload) != 200 {
			t.Errorf("Get %s = %+v", id, got)
		}
	}
	avg, err := cc.AverageDensityCtx(context.Background())
	if err != nil {
		t.Fatalf("AverageDensity: %v", err)
	}
	// 20 objects x 200 bytes x 0.5 importance over 5 x 1000 bytes = 0.4.
	if avg < 0.39 || avg > 0.41 {
		t.Errorf("average density = %v, want ~0.4", avg)
	}
}

func TestClusterClientLowestBoundary(t *testing.T) {
	clients := startNodes(t, 3, 100)
	// Fill node importance levels 0.9, 0.9, 0.2 -- the 0.5 arrival must
	// land on the 0.2 node.
	levels := []float64{0.9, 0.9, 0.2}
	for i, c := range clients {
		if _, err := c.PutCtx(context.Background(), PutRequest{
			ID:         object.ID(fmt.Sprintf("fill%d", i)),
			Importance: importance.Constant{Level: levels[i]},
			Payload:    make([]byte, 100),
		}); err != nil {
			t.Fatalf("fill node %d: %v", i, err)
		}
	}
	cc, err := NewClusterClient(clients, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatalf("NewClusterClient: %v", err)
	}
	p, err := cc.PutCtx(context.Background(), PutRequest{
		ID:         "in",
		Importance: importance.Constant{Level: 0.5},
		Payload:    make([]byte, 50),
	})
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if p.Node != 2 || p.Boundary != 0.2 {
		t.Errorf("placement = %+v, want node 2 at boundary 0.2", p)
	}
	if len(p.Evicted) != 1 || p.Evicted[0] != "fill2" {
		t.Errorf("evicted = %v, want [fill2]", p.Evicted)
	}
}

func TestClusterClientFull(t *testing.T) {
	clients := startNodes(t, 3, 100)
	for i, c := range clients {
		if _, err := c.PutCtx(context.Background(), PutRequest{
			ID:         object.ID(fmt.Sprintf("fill%d", i)),
			Importance: importance.Constant{Level: 1},
			Payload:    make([]byte, 100),
		}); err != nil {
			t.Fatalf("fill node %d: %v", i, err)
		}
	}
	cc, err := NewClusterClient(clients, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatalf("NewClusterClient: %v", err)
	}
	_, err = cc.PutCtx(context.Background(), PutRequest{
		ID:         "in",
		Importance: importance.Constant{Level: 0.5},
		Payload:    make([]byte, 50),
	})
	if !errors.Is(err, ErrClusterFull) {
		t.Errorf("Put on saturated cluster err = %v, want ErrClusterFull", err)
	}
	if _, err := cc.GetCtx(context.Background(), "missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get missing err = %v, want ErrNotFound", err)
	}
}

func TestNewClusterClientValidation(t *testing.T) {
	if _, err := NewClusterClient(nil, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty client list accepted")
	}
	clients := startNodes(t, 2, 100)
	if _, err := NewClusterClient(clients, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestDialError(t *testing.T) {
	if _, err := Connect("127.0.0.1:1", WithTimeout(50*time.Millisecond)); err == nil {
		t.Error("Dial to a closed port succeeded")
	}
}

func TestDialClusterClosesOnPartialFailure(t *testing.T) {
	clients := startNodes(t, 1, 100)
	_ = clients
	// One good listener address plus one dead one: DialCluster must fail.
	good := startNodes(t, 1, 100)
	_ = good
	if _, err := DialCluster([]string{"127.0.0.1:1"}, 50*time.Millisecond, rand.New(rand.NewSource(1))); err == nil {
		t.Error("DialCluster with dead address succeeded")
	}
}

func TestProbeThenAgeOverWire(t *testing.T) {
	clients := startNodes(t, 1, 100)
	c := clients[0]
	if _, err := c.PutCtx(context.Background(), PutRequest{
		ID:         "waning",
		Importance: importance.TwoStep{Plateau: 0.8, Persist: 0, Wane: 10 * day},
		Payload:    make([]byte, 100),
	}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Immediately after storing, a 0.5 probe is blocked (resident ~0.8).
	admissible, boundary, err := c.ProbeCtx(context.Background(), 50, importance.Constant{Level: 0.5})
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if admissible {
		t.Errorf("probe admitted against fresher 0.8 resident (boundary %v)", boundary)
	}
	// A stronger arrival is admissible.
	admissible, boundary, err = c.ProbeCtx(context.Background(), 50, importance.Constant{Level: 0.9})
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if !admissible || boundary <= 0 || boundary > 0.8 {
		t.Errorf("strong probe = %v, boundary %v", admissible, boundary)
	}
}

// TestPutBatchAnswersPositionally: PutBatch ships a batch in frames of
// Config.MaxBatchSubs sub-requests and answers every request in its own
// place; a duplicate ID in a later frame fails alone.
func TestPutBatchAnswersPositionally(t *testing.T) {
	c := startNodes(t, 1, 1<<20)[0]
	c.cfg.MaxBatchSubs = 2
	ctx := context.Background()
	ids := []object.ID{"a", "b", "a", "c", "d"}
	reqs := make([]PutRequest, len(ids))
	for i, id := range ids {
		reqs[i] = PutRequest{ID: id, Importance: importance.Constant{Level: 0.5},
			Payload: []byte(fmt.Sprintf("payload %d", i))}
	}
	out, err := c.PutBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	for i, o := range out {
		if i == 2 {
			if !errors.Is(o.Err, ErrDuplicate) {
				t.Errorf("sub 2 (a second a) = %+v, want ErrDuplicate", o)
			}
			continue
		}
		if o.Err != nil || !o.Result.Admitted {
			t.Errorf("sub %d (%s) = %+v, want admitted", i, ids[i], o)
		}
	}
	for id, want := range map[object.ID]string{"a": "payload 0", "d": "payload 4"} {
		if o, err := c.GetCtx(ctx, id); err != nil || string(o.Payload) != want {
			t.Errorf("get %s = %v; want %q", id, err, want)
		}
	}
}
