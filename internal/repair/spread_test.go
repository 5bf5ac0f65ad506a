package repair_test

import (
	"context"
	"io"
	"log/slog"
	"net"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"besteffs/internal/client"
	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/repair"
	"besteffs/internal/wire"
)

// fixedPeers is a membership view that never changes.
type fixedPeers []wire.MemberInfo

func (p fixedPeers) AlivePeers() []wire.MemberInfo { return p }

// noLocal stands in for the node's own storage; an ingest push never
// touches it.
type noLocal struct{}

func (noLocal) IndexEntries(float64) []wire.IndexEntry           { return nil }
func (noLocal) ReplicaSource(object.ID) (*wire.Replicate, error) { return nil, nil }
func (noLocal) StoreReplica(*wire.Replicate) (bool, error)       { return true, nil }

// pipePeers is a repair.Config.Connect whose peers live on net.Pipe: each
// connection answers every request with answer's reply, and is closed
// without a reply when answer returns nil. wg counts the serving goroutines.
func pipePeers(wg *sync.WaitGroup, answer func(addr string, msg wire.Message) wire.Message) func(string) (*client.Client, error) {
	return func(addr string) (*client.Client, error) {
		clientEnd, serverEnd := net.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer serverEnd.Close()
			for {
				body, err := wire.ReadFrame(serverEnd)
				if err != nil {
					return
				}
				msg, err := wire.Decode(body)
				if err != nil {
					return
				}
				reply := answer(addr, msg)
				if reply == nil {
					return
				}
				out, err := wire.Encode(reply)
				if err != nil {
					return
				}
				if err := wire.WriteFrame(serverEnd, out); err != nil {
					return
				}
			}
		}()
		return client.NewClient(clientEnd), nil
	}
}

// TestPushSpreadsByFreeSpaceAmongEqualBoundaries: while a cluster has free
// space every node advertises boundary zero, so the boundary cannot choose
// replica holders. Breaking the tie by address would send every node's
// replicas to the same R-1 lowest-address peers until they fill; the shared
// ordering (placement.Rank) breaks it by free bytes, so replicas go where
// the room is.
func TestPushSpreadsByFreeSpaceAmongEqualBoundaries(t *testing.T) {
	peers := fixedPeers{
		{Addr: "peer-a", Alive: true, Boundary: 0, Free: 1 << 20},
		{Addr: "peer-b", Alive: true, Boundary: 0, Free: 3 << 20},
		{Addr: "peer-c", Alive: true, Boundary: 0, Free: 2 << 20},
	}
	var mu sync.Mutex
	var received []string
	var wg sync.WaitGroup
	connect := pipePeers(&wg, func(addr string, msg wire.Message) wire.Message {
		if _, ok := msg.(*wire.Replicate); ok {
			mu.Lock()
			received = append(received, addr)
			mu.Unlock()
		}
		return &wire.PutResult{Admitted: true}
	})
	m, err := repair.NewManager(repair.Config{
		Replicas: 3,
		SelfAddr: "self",
		Local:    noLocal{},
		Peers:    peers,
		Connect:  connect,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	copies := m.PushSync(context.Background(), &wire.Replicate{
		ID: "vital/x", Version: 1, Importance: importance.Constant{Level: 1}, Payload: []byte("payload"),
	})
	if err := m.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()
	if copies != 3 {
		t.Fatalf("PushSync reports %d copies, want 3", copies)
	}
	sort.Strings(received)
	if want := []string{"peer-b", "peer-c"}; !reflect.DeepEqual(received, want) {
		t.Errorf("replicas went to %v, want %v (the two peers with the most free bytes)", received, want)
	}
}

// TestOnlyATransportFailureDropsTheCachedClient: the manager keeps one
// connection per peer and redials only when that connection failed. A peer
// that answered -- with a verdict or with any error frame -- is alive, and
// its connection stays cached for the next push.
func TestOnlyATransportFailureDropsTheCachedClient(t *testing.T) {
	for _, tc := range []struct {
		name      string
		answer    wire.Message // nil: the peer closes the connection instead
		wantDials int          // over two pushes to the one peer
	}{
		{"admitted", &wire.PutResult{Admitted: true}, 1},
		{"error frame", &wire.ErrorMsg{Code: wire.CodeInternal, Text: "disk full"}, 1},
		{"closed connection", nil, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wg sync.WaitGroup
			var dials atomic.Int32
			peer := pipePeers(&wg, func(string, wire.Message) wire.Message { return tc.answer })
			m, err := repair.NewManager(repair.Config{
				Replicas: 2,
				SelfAddr: "self",
				Local:    noLocal{},
				Peers:    fixedPeers{{Addr: "peer-a", Alive: true}},
				Connect: func(addr string) (*client.Client, error) {
					dials.Add(1)
					return peer(addr)
				},
				Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
			})
			if err != nil {
				t.Fatalf("NewManager: %v", err)
			}
			for i := 0; i < 2; i++ {
				m.PushSync(context.Background(), &wire.Replicate{
					ID: "vital/x", Version: 1, Importance: importance.Constant{Level: 1}, Payload: []byte("payload"),
				})
			}
			if err := m.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			wg.Wait()
			if got := int(dials.Load()); got != tc.wantDials {
				t.Errorf("two pushes dialed the peer %d time(s), want %d", got, tc.wantDials)
			}
		})
	}
}
