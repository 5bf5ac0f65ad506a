package member_test

// Versioned cluster-config reconciliation: a strictly newer config carried
// by gossip is adopted (and, when the policy differs, leaves a
// config-mismatch event in the flight recorder), an equal version with a
// conflicting policy is rejected with a typed wire error before the
// sender's view is merged, and an older version is simply out-gossiped --
// the reply carries ours and the stale peer converges.

import (
	"context"
	"net"
	"testing"
	"time"

	"besteffs/internal/member"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

func configV(version uint64, replicas uint32, threshold float64) wire.ClusterConfig {
	return wire.ClusterConfig{
		Version:             version,
		Origin:              "origin:" + string(rune('0'+version)),
		Replicas:            replicas,
		Threshold:           threshold,
		GossipIntervalNanos: int64(time.Second),
		RepairIntervalNanos: int64(time.Minute),
	}
}

// newConfigAgent builds an agent with no serving loop: HandleGossip is
// exercised directly, the way the storage server invokes it.
func newConfigAgent(t *testing.T, cc wire.ClusterConfig, rec *telemetry.Ring[telemetry.Event]) *member.Agent {
	t.Helper()
	a, err := member.NewAgent(member.Config{
		Addr:    "127.0.0.1:1",
		Self:    func() (float64, int64, float64) { return 0, 1 << 20, 0.5 },
		Seed:    1,
		Events:  rec,
		Cluster: cc,
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	return a
}

func countMismatchEvents(rec *telemetry.Ring[telemetry.Event]) int {
	n := 0
	for _, e := range rec.Snapshot() {
		if e.Kind == telemetry.EventConfigMismatch {
			n++
		}
	}
	return n
}

func gossipFrom(addr string, cc wire.ClusterConfig) *wire.Gossip {
	return &wire.Gossip{
		From: wire.MemberInfo{
			Addr: addr, Incarnation: 1, Version: 1,
			Alive: true, ConfigVersion: cc.Version,
		},
		ShareWeight: 0.5,
		Config:      cc,
	}
}

func TestHandleGossipAdoptsNewerConfig(t *testing.T) {
	rec := telemetry.NewRecorder(32)
	a := newConfigAgent(t, configV(1, 2, 0.3), rec)

	res := a.HandleGossip(gossipFrom("127.0.0.1:2", configV(3, 5, 0.7)))
	gr, ok := res.(*wire.GossipResult)
	if !ok {
		t.Fatalf("HandleGossip answered %T, want *wire.GossipResult", res)
	}
	got := a.ClusterConfig()
	if got.Version != 3 || got.Replicas != 5 || got.Threshold != 0.7 {
		t.Errorf("config after adoption = %+v, want v3 R=5 threshold=0.7", got)
	}
	if gr.Config.Version != 3 {
		t.Errorf("reply carries config v%d, want the adopted v3", gr.Config.Version)
	}
	// Adopting a different policy is a visible transition: the flight
	// recorder must explain why this node's replication factor changed.
	if n := countMismatchEvents(rec); n != 1 {
		t.Errorf("%d config-mismatch events after adoption, want 1", n)
	}
}

func TestHandleGossipRejectsEqualVersionConflict(t *testing.T) {
	rec := telemetry.NewRecorder(32)
	a := newConfigAgent(t, configV(2, 3, 0.5), rec)

	conflicting := configV(2, 4, 0.5) // same version, different replica count
	res := a.HandleGossip(gossipFrom("127.0.0.1:2", conflicting))
	em, ok := res.(*wire.ErrorMsg)
	if !ok {
		t.Fatalf("HandleGossip answered %T, want *wire.ErrorMsg", res)
	}
	if em.Code != wire.CodeConfigMismatch {
		t.Errorf("error code %d, want CodeConfigMismatch", em.Code)
	}
	if got := a.ClusterConfig(); got.Replicas != 3 {
		t.Errorf("conflicting config was adopted: %+v", got)
	}
	if n := countMismatchEvents(rec); n != 1 {
		t.Errorf("%d config-mismatch events after rejection, want 1", n)
	}
	// The rejected sender must not have shaped the membership table.
	if peers := a.AlivePeers(); len(peers) != 0 {
		t.Errorf("rejected sender was merged into the table: %v", peers)
	}
}

func TestHandleGossipIgnoresOlderConfig(t *testing.T) {
	rec := telemetry.NewRecorder(32)
	a := newConfigAgent(t, configV(4, 3, 0.5), rec)

	res := a.HandleGossip(gossipFrom("127.0.0.1:2", configV(2, 9, 0.9)))
	gr, ok := res.(*wire.GossipResult)
	if !ok {
		t.Fatalf("HandleGossip answered %T, want *wire.GossipResult", res)
	}
	if got := a.ClusterConfig(); got.Version != 4 || got.Replicas != 3 {
		t.Errorf("older config displaced ours: %+v", got)
	}
	// The reply out-gossips the stale peer with the current config.
	if gr.Config.Version != 4 {
		t.Errorf("reply carries v%d, want our v4", gr.Config.Version)
	}
	if n := countMismatchEvents(rec); n != 0 {
		t.Errorf("%d config-mismatch events for an ignored stale config, want 0", n)
	}
}

func TestHandleGossipAcceptsMatchingPolicyQuietly(t *testing.T) {
	rec := telemetry.NewRecorder(32)
	a := newConfigAgent(t, configV(2, 3, 0.5), rec)

	same := configV(2, 3, 0.5)
	if _, ok := a.HandleGossip(gossipFrom("127.0.0.1:2", same)).(*wire.GossipResult); !ok {
		t.Fatal("matching config at equal version was rejected")
	}
	if n := countMismatchEvents(rec); n != 0 {
		t.Errorf("%d config-mismatch events for an agreeing peer, want 0", n)
	}
}

func TestGossipLoopRecordsCallerSideRejection(t *testing.T) {
	// The caller side of a rejected exchange: a joiner whose config
	// conflicts with the cluster's at an equal version gets its gossip
	// refused, and the rejection must land in the joiner's own flight
	// recorder too -- both sides explain the stalled join.
	seedRec := telemetry.NewRecorder(32)
	joinRec := telemetry.NewRecorder(32)
	a := startConfigMember(t, nil, configV(2, 3, 0.5), seedRec)
	b := startConfigMember(t, []string{a.addr}, configV(2, 4, 0.5), joinRec)

	tickUntil(t, []*testMember{b}, 5*time.Second, func() bool {
		return countMismatchEvents(joinRec) > 0
	}, "caller-side config-mismatch event on the rejected joiner")

	// Neither side adopted the other's policy.
	if got := a.agent.ClusterConfig(); got.Replicas != 3 {
		t.Errorf("seed adopted the conflicting config: %+v", got)
	}
	if got := b.agent.ClusterConfig(); got.Replicas != 4 {
		t.Errorf("joiner adopted the conflicting config: %+v", got)
	}
}

// startConfigMember is startMember plus an initial cluster config and a
// flight recorder, for end-to-end adoption tests over the real gossip loop.
func startConfigMember(t *testing.T, seeds []string, cc wire.ClusterConfig, rec *telemetry.Ring[telemetry.Event]) *testMember {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	m := &testMember{addr: l.Addr().String(), l: l}
	m.density.Store(0.5)
	agent, err := member.NewAgent(member.Config{
		Addr: m.addr,
		Self: func() (float64, int64, float64) {
			return 0, 1 << 20, m.density.Load().(float64)
		},
		Seeds:    seeds,
		Interval: 20 * time.Millisecond,
		Epoch:    10 * time.Second,
		Dial: func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, time.Second)
		},
		Seed:    1,
		Events:  rec,
		Cluster: cc,
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

func TestJoinerAdoptsClusterConfigThroughGossip(t *testing.T) {
	// A bootstrap node mints v1; a joiner arrives with version 0 (no
	// opinion, flag-derived policy) and must adopt the cluster's config
	// through the ordinary gossip loop.
	seedRec := telemetry.NewRecorder(32)
	joinRec := telemetry.NewRecorder(32)
	minted := configV(1, 3, 0.5)
	a := startConfigMember(t, nil, minted, seedRec)
	joinerDefaults := wire.ClusterConfig{Replicas: 2, Threshold: 0.3}
	b := startConfigMember(t, []string{a.addr}, joinerDefaults, joinRec)
	all := []*testMember{a, b}

	tickUntil(t, all, 5*time.Second, func() bool {
		return b.agent.ClusterConfig().Version == 1
	}, "joiner adopting the minted cluster config")

	got := b.agent.ClusterConfig()
	if got.Replicas != 3 || got.Threshold != 0.5 {
		t.Errorf("joiner enforces %+v, want the minted policy R=3 threshold=0.5", got)
	}
	// The joiner's flag defaults disagreed with the minted policy, so the
	// adoption must be visible in its flight recorder.
	if n := countMismatchEvents(joinRec); n == 0 {
		t.Error("no config-mismatch event on the joiner despite a policy change")
	}
	if n := countMismatchEvents(seedRec); n != 0 {
		t.Errorf("%d config-mismatch events on the minting node, want 0", n)
	}
}
