package member_test

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"besteffs/internal/faultnet"
	"besteffs/internal/member"
	"besteffs/internal/metrics"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// testMember is one agent plus a minimal gossip responder: a TCP loop that
// answers OpGossip frames with HandleGossip, exactly what the storage
// server does on the real wire.
type testMember struct {
	agent   *member.Agent
	addr    string
	density atomic.Value // float64
	reg     *metrics.Registry
	events  *telemetry.Recorder
	l       net.Listener
	cancel  context.CancelFunc
}

// startMember listens on a loopback port, builds an agent advertising that
// address, and serves gossip on it. dialWrap, when non-nil, wraps the
// default dial (faultnet partitions hook in here) given the member's own
// address.
func startMember(t *testing.T, seeds []string, density float64,
	dialWrap func(self string, dial func(string) (net.Conn, error)) func(string) (net.Conn, error)) *testMember {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	m := &testMember{addr: l.Addr().String(), l: l, reg: metrics.NewRegistry(), events: telemetry.NewRecorder(64)}
	m.density.Store(density)
	dial := func(addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, time.Second)
	}
	if dialWrap != nil {
		dial = dialWrap(m.addr, dial)
	}
	agent, err := member.NewAgent(member.Config{
		Addr: m.addr,
		Self: func() (float64, int64, float64) {
			return 0, 1 << 20, m.density.Load().(float64)
		},
		Seeds:    seeds,
		Interval: 20 * time.Millisecond,
		Epoch:    10 * time.Second, // no epoch roll mid-test
		Dial:     dial,
		Seed:     1,
		Registry: m.reg,
		Events:   m.events,
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	m.agent = agent
	ctx, cancel := context.WithCancel(context.Background())
	m.cancel = cancel
	go serveGossip(ctx, l, agent)
	t.Cleanup(m.stop)
	return m
}

func (m *testMember) stop() {
	m.cancel()
	m.l.Close()
}

func serveGossip(ctx context.Context, l net.Listener, a *member.Agent) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			defer c.Close()
			for {
				if ctx.Err() != nil {
					return
				}
				body, err := wire.ReadFrame(c)
				if err != nil {
					return
				}
				msg, err := wire.Decode(body)
				if err != nil {
					return
				}
				g, ok := msg.(*wire.Gossip)
				if !ok {
					return
				}
				out, err := wire.Encode(a.HandleGossip(g))
				if err != nil {
					return
				}
				if err := wire.WriteFrame(c, out); err != nil {
					return
				}
			}
		}(conn)
	}
}

// tickUntil drives every agent's heartbeat until cond holds or the deadline
// passes; manual ticks keep the schedule deterministic under -race.
func tickUntil(t *testing.T, members []*testMember, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, m := range members {
			m.agent.Tick(ctx)
		}
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// transitions lists the membership events m recorded about peer, in order.
func (m *testMember) transitions(peer string) []telemetry.EventKind {
	var out []telemetry.EventKind
	for _, e := range m.events.Snapshot() {
		if e.Peer == peer {
			out = append(out, e.Kind)
		}
	}
	return out
}

func allSeeEachOther(members []*testMember, n int) bool {
	for _, m := range members {
		if len(m.agent.AlivePeers()) != n-1 {
			return false
		}
	}
	return true
}

func TestAgentsDiscoverThroughOneSeed(t *testing.T) {
	a := startMember(t, nil, 0.3, nil)
	b := startMember(t, []string{a.addr}, 0.5, nil)
	c := startMember(t, []string{a.addr}, 0.7, nil)
	all := []*testMember{a, b, c}

	// b and c only know a; gossip must spread the third-party
	// advertisements until everyone sees everyone.
	tickUntil(t, all, 5*time.Second, func() bool { return allSeeEachOther(all, 3) },
		"full discovery through one seed")

	for _, m := range all {
		view := m.agent.Members()
		if len(view) != 3 {
			t.Fatalf("%s sees %d members, want 3: %+v", m.addr, len(view), view)
		}
		for _, mi := range view {
			if !mi.Alive {
				t.Errorf("%s sees %s dead, want alive", m.addr, mi.Addr)
			}
		}
	}
}

func TestAdvertisementsCarryPlacementState(t *testing.T) {
	a := startMember(t, nil, 0.25, nil)
	b := startMember(t, []string{a.addr}, 0.75, nil)
	all := []*testMember{a, b}

	tickUntil(t, all, 5*time.Second, func() bool { return allSeeEachOther(all, 2) },
		"mutual discovery")

	peers := a.agent.AlivePeers()
	if len(peers) != 1 || peers[0].Addr != b.addr {
		t.Fatalf("a's peers = %+v, want just %s", peers, b.addr)
	}
	if peers[0].Density != 0.75 {
		t.Errorf("b advertises density %v, want 0.75", peers[0].Density)
	}
	if peers[0].Free != 1<<20 {
		t.Errorf("b advertises free %d, want %d", peers[0].Free, 1<<20)
	}
}

func TestDensityEstimateConverges(t *testing.T) {
	a := startMember(t, nil, 0.2, nil)
	b := startMember(t, []string{a.addr}, 0.5, nil)
	c := startMember(t, []string{a.addr}, 0.8, nil)
	all := []*testMember{a, b, c}

	want := (0.2 + 0.5 + 0.8) / 3
	tickUntil(t, all, 5*time.Second, func() bool {
		for _, m := range all {
			got := m.agent.DensityEstimate()
			if got < want-0.05 || got > want+0.05 {
				return false
			}
		}
		return true
	}, fmt.Sprintf("push-sum density estimates near %.3f", want))

	// The estimate is what Section 5.3 calls the annotation feedback; each
	// heartbeat publishes it, so an operator reads it off /metrics.
	for _, m := range all {
		m.agent.Tick(context.Background())
		got := m.reg.Gauge("besteffs_cluster_density_estimate", "").Value()
		if got < want-0.05 || got > want+0.05 {
			t.Errorf("%s: besteffs_cluster_density_estimate = %.3f, want near %.3f", m.addr, got, want)
		}
	}
}

func TestDeathDetectionAndRejoin(t *testing.T) {
	a := startMember(t, nil, 0.3, nil)
	b := startMember(t, []string{a.addr}, 0.5, nil)
	c := startMember(t, []string{a.addr}, 0.7, nil)
	all := []*testMember{a, b, c}

	tickUntil(t, all, 5*time.Second, func() bool { return allSeeEachOther(all, 3) },
		"full discovery")
	// First sighting publishes member-up, from the exchange that merged it.
	for _, m := range []*testMember{a, b} {
		if got := m.transitions(c.addr); len(got) == 0 || got[0] != telemetry.EventMemberUp {
			t.Errorf("%s recorded %v about %s after discovery, want member-up first", m.addr, got, c.addr)
		}
	}

	// Kill c: stop its responder and its heartbeats. Its advertisement
	// stops getting fresher, so a and b independently time it out.
	c.stop()
	survivors := []*testMember{a, b}
	tickUntil(t, survivors, 5*time.Second, func() bool {
		return len(a.agent.AlivePeers()) == 1 && len(b.agent.AlivePeers()) == 1
	}, "death detection")
	for _, m := range survivors {
		for _, mi := range m.agent.Members() {
			if mi.Addr == c.addr && mi.Alive {
				t.Fatalf("%s still sees %s alive after death timeout", m.addr, c.addr)
			}
		}
	}
	// The verdict is a function of lastSeen; the member-down edge is
	// published by the next heartbeat's sweep, so tick until it lands.
	tickUntil(t, survivors, 5*time.Second, func() bool {
		for _, m := range survivors {
			if got := m.transitions(c.addr); len(got) == 0 || got[len(got)-1] != telemetry.EventMemberDown {
				return false
			}
		}
		return true
	}, "a member-down event past DeadAfter")

	// Restart on the same address: a fresh process with a later
	// incarnation. The survivors keep probing dead peers occasionally, and
	// the restarted node dials its seed, so it is rediscovered.
	c2 := startMember(t, []string{a.addr}, 0.7, nil)
	_ = c2 // same cluster, new port; the old address stays dead
	all2 := []*testMember{a, b, c2}
	tickUntil(t, all2, 5*time.Second, func() bool {
		return len(c2.agent.AlivePeers()) == 2 &&
			alivePeerSet(a.agent)[c2.addr] && alivePeerSet(b.agent)[c2.addr]
	}, "rejoin after restart")
}

func alivePeerSet(a *member.Agent) map[string]bool {
	out := make(map[string]bool)
	for _, mi := range a.AlivePeers() {
		out[mi.Addr] = true
	}
	return out
}

func TestPartitionSplitsThenHeals(t *testing.T) {
	inj := faultnet.NewInjector(7, faultnet.Plan{})
	part := inj.NewPartition()
	wrap := func(self string, dial func(string) (net.Conn, error)) func(string) (net.Conn, error) {
		return part.Dialer(self, dial)
	}
	a := startMember(t, nil, 0.3, wrap)
	b := startMember(t, []string{a.addr}, 0.5, wrap)
	c := startMember(t, []string{a.addr}, 0.7, wrap)
	all := []*testMember{a, b, c}

	tickUntil(t, all, 5*time.Second, func() bool { return allSeeEachOther(all, 3) },
		"full discovery")

	// Split c from both survivors. Heartbeats stop crossing in either
	// direction, so each side times the other out.
	part.Block(c.addr, a.addr)
	part.Block(c.addr, b.addr)
	tickUntil(t, all, 5*time.Second, func() bool {
		return len(c.agent.AlivePeers()) == 0 &&
			len(a.agent.AlivePeers()) == 1 && len(b.agent.AlivePeers()) == 1
	}, "split detection on both sides")

	// Heal. Both sides keep probing dead peers with some probability, so
	// the halves re-merge without any restart.
	part.Heal()
	tickUntil(t, all, 10*time.Second, func() bool { return allSeeEachOther(all, 3) },
		"re-convergence after heal")
}
