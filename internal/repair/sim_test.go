package repair_test

// Three nodes whose background steps -- gossip Tick, expiry sweep and
// repair pass -- run only as events of one sim.Engine: the same steps
// besteffsd schedules on the wall clock, here on a virtual one. The nodes
// serve over loopback TCP, and every step is synchronous, so an event's
// work is done when its handler returns; no test here sleeps or polls.

import (
	"context"
	"io"
	"log/slog"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"besteffs/internal/client"
	"besteffs/internal/importance"
	"besteffs/internal/member"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/repair"
	"besteffs/internal/server"
	"besteffs/internal/sim"
)

// simNode is one node of a simCluster.
type simNode struct {
	srv   *server.Server
	agent *member.Agent
	mgr   *repair.Manager
	addr  string
}

// simCluster is three nodes with R = 2 on one virtual clock. The nodes read
// the clock from now, which each event handler sets before it runs a step:
// server goroutines must not read the engine directly.
type simCluster struct {
	t     *testing.T
	eng   *sim.Engine
	now   atomic.Int64
	nodes []*simNode
}

// gossipEvery is the virtual heartbeat period.
const gossipEvery = 10 * time.Millisecond

// startSimCluster boots the nodes and schedules every node's gossip Tick
// every gossipEvery, from gossipEvery until the given time, so an event a
// test schedules at time 0 runs before any node has gossiped. Nodes 1 and
// 2 seed from node 0.
func startSimCluster(t *testing.T, until time.Duration) *simCluster {
	t.Helper()
	c := &simCluster{t: t, eng: sim.NewEngine(sim.WithGranularity(time.Millisecond))}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	clock := func() time.Duration { return time.Duration(c.now.Load()) }
	var seeds []string
	for i := 0; i < 3; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		n := &simNode{addr: l.Addr().String()}
		n.srv, err = server.New(server.EngineConfig{Capacity: nodeCapacity, Policy: policy.TemporalImportance{}},
			server.WithClock(clock), server.WithLogger(quiet), server.WithNodeAddr(n.addr))
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		srv := n.srv
		n.agent, err = member.NewAgent(member.Config{
			Addr: n.addr,
			Self: func() (float64, int64, float64) {
				sm := srv.Engine().SampleAt(srv.Now())
				return sm.Boundary, srv.Engine().Free(), sm.Density
			},
			Seeds:    seeds,
			Interval: gossipEvery,
			// Liveness and push-sum epochs stay on wall time; no peer may
			// age out during the run.
			DeadAfter: time.Hour,
			Logger:    quiet,
			Seed:      int64(i + 1),
		})
		if err != nil {
			t.Fatalf("member.NewAgent: %v", err)
		}
		srv.SetMembership(n.agent)
		n.mgr, err = repair.NewManager(repair.Config{
			Replicas: 2, Threshold: replThreshold,
			SelfAddr: n.addr, Local: srv, Peers: n.agent, Logger: quiet,
		})
		if err != nil {
			t.Fatalf("repair.NewManager: %v", err)
		}
		srv.SetRepair(n.mgr)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ctx, l) }()
		t.Cleanup(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("Serve: %v", err)
			}
			n.mgr.Close()
		})
		c.nodes = append(c.nodes, n)
		seeds = []string{c.nodes[0].addr}
	}
	for _, n := range c.nodes {
		c.every(gossipEvery, gossipEvery, until, func() { n.agent.Tick(context.Background()) })
	}
	return c
}

// at schedules step at virtual time t.
func (c *simCluster) at(t time.Duration, step func()) {
	if err := c.eng.Schedule(t, func(now time.Duration) {
		c.now.Store(int64(now))
		step()
	}); err != nil {
		c.t.Fatalf("schedule: %v", err)
	}
}

// every schedules step at start and then every period until the given time.
func (c *simCluster) every(start, period, until time.Duration, step func()) {
	if err := c.eng.Every(start, period, until, func(now time.Duration) {
		c.now.Store(int64(now))
		step()
	}); err != nil {
		c.t.Fatalf("schedule: %v", err)
	}
}

// put stores id on node 0 through a client, as a user would.
func (c *simCluster) put(id object.ID, imp importance.Function) {
	cl, err := client.Connect(c.nodes[0].addr, client.WithTimeout(time.Second))
	if err != nil {
		c.t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if _, err := cl.PutCtx(context.Background(), client.PutRequest{
		ID: id, Importance: imp, Payload: payloadFor(id),
	}); err != nil {
		c.t.Fatalf("put %s: %v", id, err)
	}
}

// pass runs one anti-entropy pass on node i.
func (c *simCluster) pass(i int) {
	if _, err := c.nodes[i].mgr.PassNow(context.Background()); err != nil {
		c.t.Errorf("PassNow on node %d: %v", i, err)
	}
}

// holding lists the nodes that hold id, by index.
func (c *simCluster) holding(id object.ID) []int {
	var out []int
	for i, n := range c.nodes {
		if _, err := n.srv.Engine().Get(id); err == nil {
			out = append(out, i)
		}
	}
	return out
}

// TestExpiredObjectStaysReclaimed puts an object whose importance falls
// linearly from 1 to 0 over 300 ms, lets it expire, sweeps one of its two
// holders and runs a repair pass on every node. The swept node must not
// get the object back, and the third node must not receive it. The holder
// that has not swept may keep its copy until its own sweep; once every
// node has swept, no node holds it.
func TestExpiredObjectStaysReclaimed(t *testing.T) {
	c := startSimCluster(t, 600*time.Millisecond)
	id := object.ID("fading")
	var held []int
	c.at(50*time.Millisecond, func() {
		for _, n := range c.nodes {
			if got := len(n.agent.AlivePeers()); got != 2 {
				t.Fatalf("%s sees %d peers at the put, want 2", n.addr, got)
			}
		}
		c.put(id, importance.Linear{Start: 1, Expire: 300 * time.Millisecond})
		if held = c.holding(id); len(held) != 2 {
			t.Fatalf("ingest left holders %v, want 2", held)
		}
	})
	c.at(400*time.Millisecond, func() { c.nodes[held[1]].srv.SweepNow() })
	c.at(410*time.Millisecond, func() {
		for i := range c.nodes {
			c.pass(i)
		}
		for _, i := range c.holding(id) {
			if i != held[0] {
				o, _ := c.nodes[i].srv.Engine().Get(id)
				t.Errorf("after node %d swept the expired object, node %d holds it again at importance %.3f",
					held[1], i, o.ImportanceAt(c.nodes[i].srv.Now()))
			}
		}
	})
	c.at(500*time.Millisecond, func() {
		for _, n := range c.nodes {
			n.srv.SweepNow()
		}
	})
	c.at(510*time.Millisecond, func() {
		for i := range c.nodes {
			c.pass(i)
		}
		if h := c.holding(id); len(h) != 0 {
			t.Errorf("after every node swept, nodes %v still hold the expired object", h)
		}
	})
	c.eng.Run(600 * time.Millisecond)
}

// TestSimClusterGossipSweepRepair runs every node's gossip, sweep and repair
// steps on their own staggered periods for one virtual second. An object
// put before anyone gossiped has one copy, and repair must pull exactly one
// more; one put after membership converged is pushed to its second holder
// at ingest, expires, and must be gone everywhere with no pull; one below
// the replication threshold stays single.
func TestSimClusterGossipSweepRepair(t *testing.T) {
	const until = time.Second
	c := startSimCluster(t, until)
	// Before the first gossip tick, so node 0 has no peers to push to yet.
	c.at(0, func() { c.put("early", importance.Constant{Level: 1}) })
	c.at(50*time.Millisecond, func() {
		c.put("fading", importance.Linear{Start: 1, Expire: 300 * time.Millisecond})
		c.put("minor", importance.Constant{Level: 0.3})
	})
	for i, n := range c.nodes {
		stagger := time.Duration(i) * 5 * time.Millisecond
		c.every(10*time.Millisecond+3*stagger, 50*time.Millisecond, until, func() { n.srv.SweepNow() })
		c.every(100*time.Millisecond+stagger, 100*time.Millisecond, until, func() { c.pass(i) })
	}
	c.eng.Run(until)

	for id, want := range map[object.ID]int{"early": 2, "fading": 0, "minor": 1} {
		if h := c.holding(id); len(h) != want {
			t.Errorf("%s is held by nodes %v, want %d holders", id, h, want)
		}
	}
	var pulled uint64
	for _, n := range c.nodes {
		pulled += n.mgr.Status().Pulled
		if got := len(n.agent.AlivePeers()); got != 2 {
			t.Errorf("%s sees %d peers, want 2", n.addr, got)
		}
	}
	if pulled != 1 {
		t.Errorf("repair pulled %d objects, want exactly 1 (early)", pulled)
	}
}
