package repair_test

// Chaos tests for the clustered node: the PR's proof obligations. A
// three-node cluster with R=2 replication is subjected to a node kill in
// the middle of a put storm (no acknowledged high-importance object may be
// lost, and anti-entropy must restore full replication), and to a gossip
// partition (the repair layer must re-replicate around the apparently-dead
// node, and membership must re-converge after the heal). Both run real
// servers over real loopback TCP, with WAL-backed persistence, so the kill
// test also proves restart-from-WAL rejoins cleanly.

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/client"
	"besteffs/internal/faultnet"
	"besteffs/internal/importance"
	"besteffs/internal/journal"
	"besteffs/internal/loop"
	"besteffs/internal/member"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/repair"
	"besteffs/internal/secure"
	"besteffs/internal/server"
)

const (
	nodeCapacity  = 8 << 20
	replThreshold = 0.8
)

// chaosNode is one clustered storage node under test: server + WAL +
// membership agent + repair manager, the same wiring besteffsd does.
type chaosNode struct {
	t    *testing.T
	dir  string
	addr string // fixed on first start; restarts rebind it

	srv     *server.Server
	agent   *member.Agent
	mgr     *repair.Manager
	wal     *journal.WAL
	cancel  context.CancelFunc
	done    chan error
	stopped bool

	// tls runs the node with mutual-auth TLS on every path (accept loop,
	// gossip, repair dials), the -tls besteffsd wiring. The certificate
	// lives under the data dir, so restarts keep the device identity.
	tls       bool
	clientTLS *tls.Config

	// gossipDial lets the partition test inject faults into the
	// membership transport; nil uses plain TCP.
	gossipDial func(self string, dial func(string) (net.Conn, error)) func(string) (net.Conn, error)
}

// dial opens a client connection to the node, over TLS when the node
// requires it.
func (n *chaosNode) dial(timeout time.Duration) (*client.Client, error) {
	cfg := client.DefaultConfig()
	cfg.TLS = n.clientTLS
	return client.Connect(n.addr, client.WithTimeout(timeout), client.WithConfig(cfg))
}

// start boots (or reboots) the node from its data directory: restore from
// the WAL, listen, attach membership and repair, serve.
func (n *chaosNode) start(seeds []string) {
	n.t.Helper()
	n.stopped = false
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	files, err := blob.NewFileStore(filepath.Join(n.dir, "blobs"))
	if err != nil {
		n.t.Fatalf("blob store: %v", err)
	}
	n.t.Cleanup(func() { files.Close() })
	wal, err := journal.OpenWAL(filepath.Join(n.dir, server.WALDirName))
	if err != nil {
		n.t.Fatalf("open wal: %v", err)
	}
	n.wal = wal
	// Listen before building the server so the node's final address can be
	// stamped onto its spans (WithNodeAddr), same as besteffsd -advertise.
	listenAddr := n.addr
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", listenAddr)
	if err != nil {
		n.t.Fatalf("listen %s: %v", listenAddr, err)
	}
	n.addr = l.Addr().String()
	if n.tls {
		cert, err := secure.LoadOrCreate(filepath.Join(n.dir, "tls"))
		if err != nil {
			n.t.Fatalf("node certificate: %v", err)
		}
		l = tls.NewListener(l, secure.ServerConfig(cert, nil))
		n.clientTLS = secure.ClientConfig(cert, nil)
	}
	srv, err := server.New(server.EngineConfig{Capacity: nodeCapacity, Policy: policy.TemporalImportance{}},
		server.WithBlobStore(files), server.WithWAL(wal), server.WithLogger(quiet),
		server.WithNodeAddr(n.addr))
	if err != nil {
		n.t.Fatalf("server.New: %v", err)
	}
	n.srv = srv
	if _, err := srv.RestoreDir(n.dir); err != nil {
		n.t.Fatalf("restore %s: %v", n.dir, err)
	}

	cfg := member.Config{
		Addr: n.addr,
		Self: func() (float64, int64, float64) {
			sm := srv.Engine().SampleAt(srv.Now())
			return sm.Boundary, srv.Engine().Free(), sm.Density
		},
		Seeds:    seeds,
		Interval: 25 * time.Millisecond,
		Logger:   quiet,
		Seed:     1,
		Registry: srv.Metrics(),
		Events:   srv.Events(),
	}
	if n.gossipDial != nil {
		cfg.Dial = n.gossipDial(n.addr, func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, time.Second)
		})
	} else if n.tls {
		cfg.Dial = secure.Dialer(n.clientTLS, time.Second)
	}
	agent, err := member.NewAgent(cfg)
	if err != nil {
		n.t.Fatalf("member.NewAgent: %v", err)
	}
	n.agent = agent
	srv.SetMembership(agent)

	rcfg := repair.Config{
		Replicas:  2,
		Threshold: replThreshold,
		SelfAddr:  n.addr,
		Local:     srv,
		Peers:     agent,
		Logger:    quiet,
		Registry:  srv.Metrics(),
		Events:    srv.Events(),
	}
	if n.tls {
		ccfg := client.DefaultConfig()
		ccfg.TLS = n.clientTLS
		rcfg.Connect = func(addr string) (*client.Client, error) {
			return client.Connect(addr, client.WithTimeout(time.Second), client.WithConfig(ccfg))
		}
	}
	mgr, err := repair.NewManager(rcfg)
	if err != nil {
		n.t.Fatalf("repair.NewManager: %v", err)
	}
	n.mgr = mgr
	srv.SetRepair(mgr)

	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.done = make(chan error, 1)
	go loop.Run(ctx, loop.Task{Every: cfg.Interval, Step: agent.Tick, AtStart: true})
	go func() { n.done <- n.srv.Serve(ctx, l) }()
}

// kill stops the node abruptly: no final checkpoint, so the restart path
// has to replay the WAL. The WAL is synced and closed (one process cannot
// keep two writers on the same segments), which a real crash also
// guarantees for every acknowledged record -- puts sync before the ack.
func (n *chaosNode) kill() {
	n.t.Helper()
	if n.stopped {
		return
	}
	n.stopped = true
	n.cancel()
	if err := <-n.done; err != nil {
		n.t.Errorf("Serve on %s: %v", n.addr, err)
	}
	if err := n.mgr.Close(); err != nil {
		n.t.Errorf("close repair: %v", err)
	}
	if err := n.wal.Sync(); err != nil {
		n.t.Errorf("sync wal: %v", err)
	}
	if err := n.wal.Close(); err != nil {
		n.t.Errorf("close wal: %v", err)
	}
}

func startCluster(t *testing.T, gossipDial func(self string, dial func(string) (net.Conn, error)) func(string) (net.Conn, error)) []*chaosNode {
	return startClusterTLS(t, gossipDial, false)
}

func startClusterTLS(t *testing.T, gossipDial func(self string, dial func(string) (net.Conn, error)) func(string) (net.Conn, error), useTLS bool) []*chaosNode {
	t.Helper()
	nodes := make([]*chaosNode, 3)
	var seeds []string
	for i := range nodes {
		nodes[i] = &chaosNode{t: t, dir: t.TempDir(), gossipDial: gossipDial, tls: useTLS}
		nodes[i].start(seeds)
		if i == 0 {
			seeds = []string{nodes[0].addr}
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.kill()
		}
		// A failed chaos test dumps every node's flight recorder: the
		// black box that says what each node decided while the test saw
		// only the wire. The rings outlive kill(), so this works even for
		// nodes that died mid-test.
		if t.Failed() {
			for _, n := range nodes {
				t.Logf("=== flight recorder %s (%d events) ===", n.addr, n.srv.Events().Len())
				var buf strings.Builder
				n.srv.Events().Dump(&buf)
				t.Log(buf.String())
			}
		}
	})
	waitFor(t, 10*time.Second, func() bool {
		for _, n := range nodes {
			if len(n.agent.AlivePeers()) != len(nodes)-1 {
				return false
			}
		}
		return true
	}, "membership convergence")
	return nodes
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// holders returns which of the given nodes hold id, asking each over the
// wire.
func holders(t *testing.T, ctx context.Context, nodes []*chaosNode, id object.ID) []string {
	t.Helper()
	var out []string
	for _, n := range nodes {
		c, err := n.dial(time.Second)
		if err != nil {
			continue // dead node: holds nothing reachable
		}
		_, err = c.GetCtx(ctx, id)
		c.Close()
		switch {
		case err == nil:
			out = append(out, n.addr)
		case !errors.Is(err, client.ErrNotFound):
			t.Fatalf("get %s on %s: %v", id, n.addr, err)
		}
	}
	return out
}

// repairUntilConverged runs anti-entropy passes on the given nodes until a
// full round reports no deficit, then returns the total pulls across all
// rounds.
func repairUntilConverged(t *testing.T, ctx context.Context, nodes []*chaosNode) int {
	t.Helper()
	totalPulled := 0
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		deficit := 0
		for _, n := range nodes {
			pass, err := n.mgr.PassNow(ctx)
			if err != nil {
				t.Fatalf("repair pass on %s: %v", n.addr, err)
			}
			totalPulled += pass.Pulled
			deficit += pass.UnderReplicated + pass.Pending
		}
		if deficit == 0 {
			return totalPulled
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("anti-entropy never converged to zero deficit")
	return totalPulled
}

func TestKillOneOfThreeLosesNoAcknowledgedObject(t *testing.T) {
	testKillOneOfThree(t, false)
}

// TestKillOneOfThreeLosesNoAcknowledgedObjectTLS reruns the kill chaos test
// with every connection -- gossip, replication, repair pulls, clients --
// over mutual-auth TLS, including the victim's restart reloading its
// certificate identity from disk.
func TestKillOneOfThreeLosesNoAcknowledgedObjectTLS(t *testing.T) {
	testKillOneOfThree(t, true)
}

func testKillOneOfThree(t *testing.T, useTLS bool) {
	if testing.Short() {
		t.Skip("multi-node chaos test")
	}
	ctx := context.Background()
	nodes := startClusterTLS(t, nil, useTLS)

	seedOpts := []client.ClusterOption{}
	if useTLS {
		ccfg := client.DefaultConfig()
		ccfg.TLS = nodes[0].clientTLS
		seedOpts = append(seedOpts, client.WithClientConfig(ccfg))
	}
	cc, err := client.DialClusterSeed(ctx, nodes[0].addr, time.Second,
		rand.New(rand.NewSource(1)), seedOpts...)
	if err != nil {
		t.Fatalf("DialClusterSeed: %v", err)
	}
	defer cc.Close()

	// Pin one object directly onto the victim so its death certainly
	// orphans a copy; ingest replication pushes the second copy to a peer
	// before the ack returns.
	victim := nodes[1]
	vc, err := victim.dial(time.Second)
	if err != nil {
		t.Fatalf("dial victim: %v", err)
	}
	pinned := object.ID("vital/pinned")
	if _, err := vc.PutCtx(ctx, client.PutRequest{
		ID:         pinned,
		Importance: importance.Constant{Level: 1},
		Payload:    payloadFor(pinned),
	}); err != nil {
		t.Fatalf("pinned put: %v", err)
	}
	vc.Close()
	acked := []object.ID{pinned}

	// Batch storm: high-importance puts through the placement walk, with
	// the victim killed in the middle. Only successful puts count as
	// acknowledged; failures during the death window are the client's
	// problem to retry, not the durability contract's.
	put := func(id object.ID) {
		t.Helper()
		req := client.PutRequest{
			ID:         id,
			Importance: importance.Constant{Level: 1},
			Payload:    payloadFor(id),
		}
		for attempt := 0; ; attempt++ {
			if _, err := cc.PutCtx(ctx, req); err == nil {
				acked = append(acked, id)
				return
			} else if attempt >= 20 {
				t.Fatalf("put %s never succeeded: %v", id, err)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	for i := 0; i < 8; i++ {
		put(object.ID(fmt.Sprintf("vital/pre-%02d", i)))
	}
	victim.kill()
	for i := 0; i < 8; i++ {
		put(object.ID(fmt.Sprintf("vital/post-%02d", i)))
	}

	// Zero acknowledged loss: every acked object must be retrievable from
	// some survivor, payload intact.
	survivors := []*chaosNode{nodes[0], nodes[2]}
	for _, id := range acked {
		if got := fetchFromAny(t, ctx, survivors, id); got == nil {
			t.Errorf("acknowledged object %s lost after killing one of three nodes", id)
		} else if string(got) != string(payloadFor(id)) {
			t.Errorf("object %s came back corrupted", id)
		}
	}

	// Anti-entropy on the survivors restores R=2 with the victim dead.
	pulled := repairUntilConverged(t, ctx, survivors)
	if pulled == 0 {
		t.Error("survivors pulled nothing, but the dead node held the pinned object's only indexed copy")
	}
	for _, id := range acked {
		if h := holders(t, ctx, survivors, id); len(h) < 2 {
			t.Errorf("object %s has %d live holders after repair, want 2 (held by %v)", id, len(h), h)
		}
	}

	// The victim restarts from its WAL and rejoins; the cluster converges
	// with it back in.
	victim.start([]string{nodes[0].addr})
	waitFor(t, 10*time.Second, func() bool {
		return len(victim.agent.AlivePeers()) == 2 &&
			len(nodes[0].agent.AlivePeers()) == 2 && len(nodes[2].agent.AlivePeers()) == 2
	}, "victim rejoin")
	repairUntilConverged(t, ctx, nodes)
	for _, id := range acked {
		if h := holders(t, ctx, nodes, id); len(h) < 2 {
			t.Errorf("object %s has %d holders after rejoin, want >= 2", id, len(h))
		}
	}

	// The wire-visible repair counters back the story: passes ran, pulls
	// happened, and nobody is left under-replicated.
	for _, n := range survivors {
		c, err := n.dial(time.Second)
		if err != nil {
			t.Fatalf("dial %s: %v", n.addr, err)
		}
		st, err := c.RepairStatusCtx(ctx)
		c.Close()
		if err != nil {
			t.Fatalf("repair status on %s: %v", n.addr, err)
		}
		if st.Passes == 0 {
			t.Errorf("%s reports zero repair passes", n.addr)
		}
		if st.UnderReplicated != 0 || st.Pending != 0 {
			t.Errorf("%s still reports deficit: under_replicated=%d pending=%d",
				n.addr, st.UnderReplicated, st.Pending)
		}
	}
}

func TestPartitionHealReconverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node chaos test")
	}
	ctx := context.Background()
	inj := faultnet.NewInjector(11, faultnet.Plan{})
	part := inj.NewPartition()
	nodes := startCluster(t, func(self string, dial func(string) (net.Conn, error)) func(string) (net.Conn, error) {
		return part.Dialer(self, dial)
	})

	// Store one critical object on node 0; ingest pushes the second copy
	// to one peer.
	id := object.ID("vital/split")
	c0, err := client.Connect(nodes[0].addr, client.WithTimeout(time.Second))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := c0.PutCtx(ctx, client.PutRequest{
		ID:         id,
		Importance: importance.Constant{Level: 1},
		Payload:    payloadFor(id),
	}); err != nil {
		t.Fatalf("put: %v", err)
	}
	c0.Close()
	h := holders(t, ctx, nodes, id)
	if len(h) != 2 {
		t.Fatalf("ingest left %d holders %v, want 2", len(h), h)
	}

	// Partition the peer replica away at the gossip layer. The other two
	// nodes see it die; from their view the object is under-replicated,
	// and the non-holder must pull a new second copy.
	var holder, spare *chaosNode
	for _, n := range nodes[1:] {
		if n.addr == h[0] || n.addr == h[1] {
			holder = n
		} else {
			spare = n
		}
	}
	if holder == nil {
		// Node 0 holds the original; the push landed on nodes[1] or [2].
		t.Fatal("no peer holder found")
	}
	part.Block(holder.addr, nodes[0].addr)
	part.Block(holder.addr, spare.addr)
	connected := []*chaosNode{nodes[0], spare}
	waitFor(t, 10*time.Second, func() bool {
		return len(nodes[0].agent.AlivePeers()) == 1 && len(spare.agent.AlivePeers()) == 1 &&
			len(holder.agent.AlivePeers()) == 0
	}, "split detection")

	repairUntilConverged(t, ctx, connected)
	if h := holders(t, ctx, connected, id); len(h) != 2 {
		t.Fatalf("connected side has %d holders %v after repair, want 2", len(h), h)
	}

	// Heal: membership re-converges without restarts, and a full repair
	// round across all three finds nothing left to do (three copies is
	// over-replicated, never a deficit).
	part.Heal()
	waitFor(t, 15*time.Second, func() bool {
		for _, n := range nodes {
			if len(n.agent.AlivePeers()) != 2 {
				return false
			}
		}
		return true
	}, "re-convergence after heal")
	repairUntilConverged(t, ctx, nodes)
	if h := holders(t, ctx, nodes, id); len(h) < 2 {
		t.Fatalf("object has %d holders %v after heal, want >= 2", len(h), h)
	}
}

func payloadFor(id object.ID) []byte {
	out := make([]byte, 4096)
	copy(out, id)
	return out
}

func fetchFromAny(t *testing.T, ctx context.Context, nodes []*chaosNode, id object.ID) []byte {
	t.Helper()
	for _, n := range nodes {
		c, err := n.dial(time.Second)
		if err != nil {
			continue
		}
		o, err := c.GetCtx(ctx, id)
		c.Close()
		if err == nil {
			return o.Payload
		}
	}
	return nil
}
