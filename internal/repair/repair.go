// Package repair keeps high-importance objects replicated across the
// cluster. It has two halves. The synchronous half (PushSync) runs at
// ingest: an object whose initial importance clears the replication
// threshold is pushed to R-1 live peers -- chosen by the Section 5.3 rule,
// lowest advertised importance boundary first -- before the put is
// acknowledged, so an acknowledged high-importance object survives any
// single node death. The asynchronous half (PassNow) is anti-entropy:
// each pass exchanges per-object indexes (ID, version, payload CRC, size,
// initial importance, age) with every live peer, counts how many replicas
// each high-importance object has, and pulls the missing ones back --
// highest importance first, under a per-pass byte budget, with divergent
// copies resolved by wire.Supersedes so every replica converges without
// coordination.
//
// Repair is pull-driven: each node repairs only its own copy set. A node
// that should hold an object (it ranks among the deficit's deterministic
// fill-in order) pulls it; nobody pushes during a pass. Because every node
// runs the same ranking over the same exchanged indexes, the cluster
// converges to R holders per object without any node directing another.
package repair

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"log/slog"
	"sort"
	"sync"
	"time"

	"besteffs/internal/client"
	"besteffs/internal/metrics"
	"besteffs/internal/object"
	"besteffs/internal/placement"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// Local is the node's own storage as the repair loop sees it; implemented
// by server.Server.
type Local interface {
	// IndexEntries summarizes every resident whose initial importance is at
	// or above threshold.
	IndexEntries(threshold float64) []wire.IndexEntry
	// ReplicaSource packages a resident for pushing to a peer.
	ReplicaSource(id object.ID) (*wire.Replicate, error)
	// StoreReplica admits a replica received from a peer. It reports false
	// when the local copy already supersedes the incoming one (not an
	// error: anti-entropy races are expected).
	StoreReplica(rep *wire.Replicate) (bool, error)
}

// Peers is the membership view; implemented by member.Agent.
type Peers interface {
	// AlivePeers lists the live cluster members, self excluded.
	AlivePeers() []wire.MemberInfo
}

// ConfigSource supplies the cluster-wide config negotiated at gossip join;
// implemented by member.Agent. When present and non-zero it overrides the
// flag-derived Replicas and Threshold, so repair enforces what the cluster
// agreed on, not what this node booted with.
type ConfigSource interface {
	ClusterConfig() wire.ClusterConfig
}

// Config configures a Manager. Local, Peers and SelfAddr are required.
type Config struct {
	// Replicas is R, the copies each above-threshold object should have
	// (default 2; 1 disables replication).
	Replicas int
	// Threshold is the initial importance at or above which an object is
	// replicated (default 0.5).
	Threshold float64
	// MaxBytesPerPass bounds the payload bytes pulled per pass (default
	// 32 MiB); the remainder is reported as pending and picked up next
	// pass, highest importance first.
	MaxBytesPerPass int64
	// SelfAddr is this node's advertised address, excluded from peer
	// selection.
	SelfAddr string
	// DialTimeout bounds peer dials (default 2s).
	DialTimeout time.Duration

	Local    Local
	Peers    Peers
	Logger   *slog.Logger
	Registry *metrics.Registry
	// Events receives flight-recorder events for replica pushes and pulls;
	// nil disables recording (a nil ring drops events).
	Events *telemetry.Ring[telemetry.Event]
	// Cluster, when set, overrides Replicas and Threshold with the live
	// cluster config (member.Agent); nil keeps the flag-derived values.
	Cluster ConfigSource
	// Connect overrides how peer clients are dialed (TLS clusters inject a
	// secure dial here); nil uses a cleartext client.Connect.
	Connect func(addr string) (*client.Client, error)
}

// repairMetrics are the repair counters on the node's metrics registry.
type repairMetrics struct {
	reg              *metrics.Registry
	pushed           *metrics.Counter
	pulled           *metrics.Counter
	pushFailures     *metrics.Counter
	passes           *metrics.Counter
	bytes            *metrics.Counter
	indexEntriesSent *metrics.Counter
	indexFullSyncs   *metrics.Counter
	underReplicated  *metrics.Gauge
	pending          *metrics.Gauge
	lastPass         *metrics.Gauge
}

// Per-peer series. Registration is idempotent and these paths are not hot
// (one replica transfer dwarfs one registry lookup), so the series are
// minted at the call site instead of being cached per peer.
func (rm *repairMetrics) peerPushed(peer string, d time.Duration) {
	rm.reg.Counter("besteffs_repair_peer_pushed_total",
		"replicas pushed at ingest, by peer", metrics.L("peer", peer)).Inc()
	rm.peerRTT(peer, d)
}

func (rm *repairMetrics) peerPulled(peer string, d time.Duration) {
	rm.reg.Counter("besteffs_repair_peer_pulled_total",
		"objects pulled by anti-entropy, by peer", metrics.L("peer", peer)).Inc()
	rm.peerRTT(peer, d)
}

func (rm *repairMetrics) peerFailure(peer string) {
	rm.reg.Counter("besteffs_repair_peer_failures_total",
		"failed repair exchanges (push, pull, or index), by peer",
		metrics.L("peer", peer)).Inc()
}

func (rm *repairMetrics) peerRTT(peer string, d time.Duration) {
	rm.reg.Histogram("besteffs_repair_peer_rtt_seconds",
		"round-trip time of successful repair exchanges, by peer",
		metrics.LatencyBuckets, metrics.L("peer", peer)).Observe(d.Seconds())
}

func newRepairMetrics(reg *metrics.Registry) repairMetrics {
	return repairMetrics{
		reg: reg,
		pushed: reg.Counter("besteffs_repair_pushed_total",
			"objects pushed to peers at ingest"),
		pulled: reg.Counter("besteffs_repair_pulled_total",
			"objects pulled by anti-entropy passes"),
		pushFailures: reg.Counter("besteffs_repair_push_failures_total",
			"failed ingest-time replica pushes"),
		passes: reg.Counter("besteffs_repair_passes_total",
			"completed anti-entropy passes"),
		bytes: reg.Counter("besteffs_repair_bytes_total",
			"payload bytes pulled by repair"),
		indexEntriesSent: reg.Counter("besteffs_repair_index_entries_sent_total",
			"index entries (upserts plus removals) shipped by delta exchanges"),
		indexFullSyncs: reg.Counter("besteffs_repair_index_full_syncs_total",
			"index exchanges that fell back to a full snapshot"),
		underReplicated: reg.Gauge("besteffs_repair_under_replicated",
			"objects below the replication factor at the last pass"),
		pending: reg.Gauge("besteffs_repair_pending",
			"repairs deferred past the last pass (budget or failure)"),
		lastPass: reg.Gauge("besteffs_repair_last_pass_seconds",
			"duration of the most recent anti-entropy pass"),
	}
}

// Manager runs replication and anti-entropy for one node.
type Manager struct {
	cfg Config
	log *slog.Logger
	met repairMetrics

	// clients caches one connection per peer address; a transport failure
	// evicts the entry so the next use redials.
	clientMu sync.Mutex
	clients  map[string]*client.Client

	// peerSync tracks, per peer, the last index snapshot that peer
	// acknowledged, so each pass sends only the delta (see PassNow).
	syncMu   sync.Mutex
	peerSync map[string]*peerSync
}

// peerSync is the caller side of the incremental index exchange with one
// peer: the last acknowledged sequence and the snapshot it covered.
type peerSync struct {
	seq       uint64
	acked     bool
	threshold float64
	sent      map[object.ID]wire.IndexEntry
}

// NewManager validates cfg and returns a Manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Local == nil {
		return nil, errors.New("repair: nil Local")
	}
	if cfg.Peers == nil {
		return nil, errors.New("repair: nil Peers")
	}
	if cfg.SelfAddr == "" {
		return nil, errors.New("repair: empty SelfAddr")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 0.5
	}
	if cfg.MaxBytesPerPass <= 0 {
		cfg.MaxBytesPerPass = 32 << 20
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if cfg.Connect == nil {
		timeout := cfg.DialTimeout
		cfg.Connect = func(addr string) (*client.Client, error) {
			return client.Connect(addr, client.WithTimeout(timeout))
		}
	}
	return &Manager{
		cfg:      cfg,
		log:      cfg.Logger,
		met:      newRepairMetrics(reg),
		clients:  make(map[string]*client.Client),
		peerSync: make(map[string]*peerSync),
	}, nil
}

// Threshold returns the replication threshold the cluster currently
// enforces; the server pre-filters ingest pushes with it.
func (m *Manager) Threshold() float64 {
	if m.cfg.Cluster != nil {
		if cc := m.cfg.Cluster.ClusterConfig(); !cc.IsZero() {
			return cc.Threshold
		}
	}
	return m.cfg.Threshold
}

// Replicas returns the replication factor R the cluster currently enforces.
func (m *Manager) Replicas() int {
	if m.cfg.Cluster != nil {
		if cc := m.cfg.Cluster.ClusterConfig(); !cc.IsZero() && cc.Replicas > 0 {
			return int(cc.Replicas)
		}
	}
	return m.cfg.Replicas
}

// Status reports the repair configuration and counters.
func (m *Manager) Status() *wire.RepairStatusResult {
	return &wire.RepairStatusResult{
		Replicas:        uint32(m.Replicas()),
		Threshold:       m.Threshold(),
		Pushed:          uint64(m.met.pushed.Value()),
		Pulled:          uint64(m.met.pulled.Value()),
		PushFailures:    uint64(m.met.pushFailures.Value()),
		Passes:          uint64(m.met.passes.Value()),
		UnderReplicated: uint64(m.met.underReplicated.Value()),
		Pending:         uint64(m.met.pending.Value()),
		BytesRepaired:   uint64(m.met.bytes.Value()),
		LastPassNanos:   int64(m.met.lastPass.Value() * float64(time.Second)),
	}
}

// peerClient returns a cached connection to addr, dialing if needed. The
// dial happens OUTSIDE clientMu -- holding a mutex across a network
// connect would stall every other peer lookup (including cache hits) for
// the duration of a slow or timing-out dial -- so two repairers can race
// to the same address; the loser's connection is closed and the winner's
// cached.
func (m *Manager) peerClient(addr string) (*client.Client, error) {
	m.clientMu.Lock()
	c, ok := m.clients[addr]
	m.clientMu.Unlock()
	if ok {
		return c, nil
	}
	c, err := m.cfg.Connect(addr)
	if err != nil {
		return nil, err
	}
	m.clientMu.Lock()
	if cached, ok := m.clients[addr]; ok {
		m.clientMu.Unlock()
		c.Close()
		return cached, nil
	}
	m.clients[addr] = c
	m.clientMu.Unlock()
	return c, nil
}

// dropClient evicts a peer connection after a transport failure.
func (m *Manager) dropClient(addr string, c *client.Client) {
	m.clientMu.Lock()
	if m.clients[addr] == c {
		delete(m.clients, addr)
	}
	m.clientMu.Unlock()
	c.Close()
}

// Close drops every cached peer connection.
func (m *Manager) Close() error {
	m.clientMu.Lock()
	defer m.clientMu.Unlock()
	var first error
	for addr, c := range m.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
		delete(m.clients, addr)
	}
	return first
}

// alivePeers lists live peers excluding self in the cluster's one order of
// preference (placement.Rank) -- the replication flavor of the Section 5.3
// walk: replicas land where they preempt the least importance, and among
// equal boundaries where the most room is.
func (m *Manager) alivePeers() []wire.MemberInfo {
	var peers []wire.MemberInfo
	for _, mi := range m.cfg.Peers.AlivePeers() {
		if mi.Addr == "" || mi.Addr == m.cfg.SelfAddr {
			continue
		}
		peers = append(peers, mi)
	}
	placement.Rank(peers, func(mi wire.MemberInfo) placement.Advert {
		return placement.Advert{Boundary: mi.Boundary, Free: mi.Free, Addr: mi.Addr}
	})
	return peers
}

// PushSync pushes one freshly admitted object to R-1 live peers and
// reports how many copies now exist cluster-wide (1 = local only). It
// walks the peers lowest-boundary-first, skipping past failures until R-1
// pushes succeed or the peer list is exhausted; failures are counted, not
// fatal -- replication is best-effort and the anti-entropy pass backfills
// what ingest could not place.
func (m *Manager) PushSync(ctx context.Context, rep *wire.Replicate) int {
	copies := 1
	want := m.Replicas() - 1
	if want <= 0 {
		return copies
	}
	sc, _ := telemetry.FromContext(ctx)
	for _, peer := range m.alivePeers() {
		if copies-1 >= want {
			break
		}
		if ctx.Err() != nil {
			break
		}
		c, err := m.peerClient(peer.Addr)
		if err != nil {
			m.met.pushFailures.Inc()
			m.met.peerFailure(peer.Addr)
			m.log.Warn("replica push dial failed", "peer", peer.Addr, "id", rep.ID, "err", err)
			continue
		}
		start := time.Now()
		if _, err := c.ReplicateCtx(ctx, rep); err != nil {
			m.met.pushFailures.Inc()
			m.met.peerFailure(peer.Addr)
			if !client.IsRemoteError(err) {
				m.dropClient(peer.Addr, c)
			}
			m.log.Warn("replica push failed", "peer", peer.Addr, "id", rep.ID, "err", err)
			continue
		}
		m.met.pushed.Inc()
		m.met.peerPushed(peer.Addr, time.Since(start))
		m.cfg.Events.Record(telemetry.Event{
			Kind: telemetry.EventReplicaPush, ID: string(rep.ID),
			Peer: peer.Addr, Trace: sc.Trace, Importance: rep.Importance.At(0),
		})
		copies++
	}
	return copies
}

// Recover fetches the best available replica of id from the live peers --
// the synchronous path behind corrupt-get healing: the server quarantines
// the damaged copy, recovers the object here, and serves it. Every live
// peer is asked; divergent answers resolve by wire.Supersedes.
func (m *Manager) Recover(ctx context.Context, id object.ID) (*wire.Replicate, error) {
	var best *wire.Replicate
	var bestCRC uint32
	for _, peer := range m.alivePeers() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, err := m.peerClient(peer.Addr)
		if err != nil {
			continue
		}
		o, err := c.GetCtx(ctx, id)
		if err != nil {
			if !client.IsRemoteError(err) {
				m.dropClient(peer.Addr, c)
			}
			continue
		}
		crc := crc32.ChecksumIEEE(o.Payload)
		if best == nil || wire.Supersedes(o.Version, best.Version, crc, bestCRC) {
			best = &wire.Replicate{
				ID:         o.ID,
				Owner:      o.Owner,
				Class:      o.Class,
				Version:    o.Version,
				Importance: o.Importance,
				AgeNanos:   o.AgeNanos,
				Payload:    o.Payload,
			}
			bestCRC = crc
		}
	}
	if best == nil {
		return nil, fmt.Errorf("repair: no reachable replica of %s", id)
	}
	return best, nil
}

// Pass summarizes one anti-entropy pass.
type Pass struct {
	// Peers is how many live peers answered the index exchange.
	Peers int
	// UnderReplicated is how many above-threshold objects this node saw
	// below R holders (including divergent copies needing convergence).
	UnderReplicated int
	// Pulled is how many objects this node pulled.
	Pulled int
	// Pending is how many pulls were deferred (byte budget) or failed.
	Pending int
	// Bytes is the payload bytes pulled.
	Bytes int64
	// IndexEntriesSent counts index entries (upserts plus removals) shipped
	// to peers this pass; zero once the cluster is converged and quiet.
	IndexEntriesSent int
	// FullSyncs counts peers that needed a full index snapshot this pass
	// (first contact, restart on either side, or threshold change).
	FullSyncs int
}

// peerDiff is one peer's answer to the index exchange.
type peerDiff struct {
	addr    string
	missing map[object.ID]wire.IndexEntry
	need    map[object.ID]bool
}

// pullItem is one object this node decided to pull.
type pullItem struct {
	entry wire.IndexEntry // the superseding-est copy advertised by any peer
	from  string          // a peer holding that copy
}

// PassNow runs one anti-entropy pass: exchange indexes with every live
// peer, decide which deficits this node is responsible for, and pull those
// objects highest-importance-first within the byte budget.
func (m *Manager) PassNow(ctx context.Context) (Pass, error) {
	var pass Pass
	start := time.Now()
	// Every pass runs under a trace: the index exchanges and pulls below
	// join whatever span context the caller supplied (the 3-node tests
	// thread a put's trace through to its eventual repair), or a fresh root
	// so unsolicited passes are still reconstructable with `besteffsctl
	// trace`.
	if _, ok := telemetry.FromContext(ctx); !ok {
		ctx = telemetry.NewContext(ctx, telemetry.NewRoot())
	}
	threshold := m.Threshold()
	local := m.cfg.Local.IndexEntries(threshold)
	localByID := make(map[object.ID]wire.IndexEntry, len(local))
	for _, e := range local {
		localByID[e.ID] = e
	}

	peers := m.alivePeers()
	var diffs []peerDiff
	for _, peer := range peers {
		if err := ctx.Err(); err != nil {
			return pass, err
		}
		c, err := m.peerClient(peer.Addr)
		if err != nil {
			m.met.peerFailure(peer.Addr)
			m.log.Warn("repair index exchange dial failed", "peer", peer.Addr, "err", err)
			continue
		}
		exchangeStart := time.Now()
		res, sent, full, err := m.exchangeDelta(ctx, c, peer.Addr, threshold, local, localByID)
		pass.IndexEntriesSent += sent
		if full {
			pass.FullSyncs++
			m.met.indexFullSyncs.Inc()
		}
		m.met.indexEntriesSent.Add(int64(sent))
		if err != nil {
			m.met.peerFailure(peer.Addr)
			if !client.IsRemoteError(err) {
				m.dropClient(peer.Addr, c)
			}
			m.log.Warn("repair index exchange failed", "peer", peer.Addr, "err", err)
			continue
		}
		m.met.peerRTT(peer.Addr, time.Since(exchangeStart))
		d := peerDiff{
			addr:    peer.Addr,
			missing: make(map[object.ID]wire.IndexEntry, len(res.Missing)),
			need:    make(map[object.ID]bool, len(res.Need)),
		}
		for _, e := range res.Missing {
			d.missing[e.ID] = e
		}
		for _, id := range res.Need {
			d.need[id] = true
		}
		diffs = append(diffs, d)
	}
	pass.Peers = len(diffs)

	pulls := m.planPulls(localByID, diffs, &pass)

	// Highest importance first: when the budget cuts the pass short, what
	// the paper says matters most is what got repaired.
	sort.Slice(pulls, func(i, j int) bool {
		if pulls[i].entry.Initial != pulls[j].entry.Initial {
			return pulls[i].entry.Initial > pulls[j].entry.Initial
		}
		return pulls[i].entry.ID < pulls[j].entry.ID
	})
	var budget int64
	for _, p := range pulls {
		if err := ctx.Err(); err != nil {
			return pass, err
		}
		if budget+p.entry.Size > m.cfg.MaxBytesPerPass && budget > 0 {
			pass.Pending++
			continue
		}
		n, err := m.pull(ctx, p)
		if err != nil {
			pass.Pending++
			m.log.Warn("repair pull failed", "id", p.entry.ID, "peer", p.from, "err", err)
			continue
		}
		budget += n
		pass.Pulled++
		pass.Bytes += n
		m.met.pulled.Inc()
		m.met.bytes.Add(n)
	}

	m.met.passes.Inc()
	m.met.underReplicated.Set(float64(pass.UnderReplicated))
	m.met.pending.Set(float64(pass.Pending))
	m.met.lastPass.Set(time.Since(start).Seconds())
	if pass.Pulled > 0 || pass.Pending > 0 {
		m.log.Info("repair pass",
			"peers", pass.Peers, "under_replicated", pass.UnderReplicated,
			"pulled", pass.Pulled, "pending", pass.Pending, "bytes", pass.Bytes)
	}
	return pass, nil
}

// entryChanged reports whether an index entry changed in a way peers must
// hear about. AgeNanos is deliberately excluded: it advances on every
// snapshot, and including it would mark every entry changed every pass,
// reducing the delta protocol to a full resend.
func entryChanged(a, b wire.IndexEntry) bool {
	return a.Version != b.Version || a.CRC != b.CRC ||
		a.Size != b.Size || a.Initial != b.Initial
}

// exchangeDelta runs the incremental index exchange with one peer: send
// what changed since the peer's last acknowledged snapshot (or a full
// snapshot on first contact / threshold change), fall back to a full resend
// when the peer asks for a resync, and record the acknowledged state only
// after a successful round trip -- a transport failure leaves the previous
// acknowledgment in place, and the sequence check on the peer sorts out
// whether the lost exchange was applied. It returns the peer's comparison,
// how many entries crossed the wire, and whether a full snapshot was sent.
func (m *Manager) exchangeDelta(ctx context.Context, c *client.Client, addr string, threshold float64, local []wire.IndexEntry, localByID map[object.ID]wire.IndexEntry) (*wire.IndexDeltaResult, int, bool, error) {
	m.syncMu.Lock()
	ps, ok := m.peerSync[addr]
	if !ok {
		ps = &peerSync{}
		m.peerSync[addr] = ps
	}
	full := !ps.acked || ps.threshold != threshold
	d := &wire.IndexDelta{
		From:      m.cfg.SelfAddr,
		Threshold: threshold,
		BaseSeq:   ps.seq,
		Seq:       ps.seq + 1,
		Full:      full,
	}
	if full {
		d.Upserts = local
	} else {
		for _, e := range local {
			if prev, ok := ps.sent[e.ID]; !ok || entryChanged(prev, e) {
				d.Upserts = append(d.Upserts, e)
			}
		}
		for id := range ps.sent {
			if _, held := localByID[id]; !held {
				d.Removed = append(d.Removed, id)
			}
		}
	}
	m.syncMu.Unlock()

	sent := len(d.Upserts) + len(d.Removed)
	res, err := c.IndexDeltaCtx(ctx, d)
	if err != nil {
		return nil, sent, full, err
	}
	if res.Resync && !full {
		// The peer's mirror is gone or stale (restart, eviction): resend
		// everything under the same sequence.
		full = true
		d = &wire.IndexDelta{
			From: m.cfg.SelfAddr, Threshold: threshold,
			Seq: d.Seq, Full: true, Upserts: local,
		}
		sent += len(local)
		if res, err = c.IndexDeltaCtx(ctx, d); err != nil {
			return nil, sent, full, err
		}
	}
	if res.Resync {
		return nil, sent, full, fmt.Errorf("repair: peer %s rejected a full index snapshot", addr)
	}
	m.syncMu.Lock()
	ps.seq = d.Seq
	ps.acked = true
	ps.threshold = threshold
	ps.sent = make(map[object.ID]wire.IndexEntry, len(localByID))
	for id, e := range localByID {
		ps.sent[id] = e
	}
	m.syncMu.Unlock()
	return res, sent, full, nil
}

// planPulls decides which objects this node pulls this pass. Three cases:
//
//   - An object we hold that a peer supersedes: pull the better copy
//     (convergence; we own our own copy's correctness).
//   - An object we lack, held by fewer than R nodes: the alive non-holders
//     rank themselves with a deterministic hash per object; the deficit's
//     worth of lowest ranks pull. Every non-holder computes the same
//     ranking from its own exchange, so exactly the deficit is filled
//     without coordination.
//   - An object we hold that is under-replicated counts toward the gauge
//     but is pulled by the nodes that lack it, on their own passes.
func (m *Manager) planPulls(localByID map[object.ID]wire.IndexEntry, diffs []peerDiff, pass *Pass) []pullItem {
	var pulls []pullItem
	replicas := m.Replicas()

	// Objects we hold: count holders, detect superseding peer copies.
	for id, mine := range localByID {
		holders := 1
		var better *pullItem
		for i := range diffs {
			d := &diffs[i]
			if !d.need[id] {
				holders++
			}
			if e, ok := d.missing[id]; ok && wire.Supersedes(e.Version, mine.Version, e.CRC, mine.CRC) {
				if better == nil || wire.Supersedes(e.Version, better.entry.Version, e.CRC, better.entry.CRC) {
					better = &pullItem{entry: e, from: d.addr}
				}
			}
		}
		if better != nil {
			pulls = append(pulls, *better)
			pass.UnderReplicated++
			continue
		}
		if holders < replicas {
			pass.UnderReplicated++
		}
	}

	// Objects we lack: holders are the peers advertising them in Missing.
	type absent struct {
		best    pullItem
		holders int
	}
	absents := make(map[object.ID]*absent)
	for i := range diffs {
		d := &diffs[i]
		for id, e := range d.missing {
			if _, held := localByID[id]; held {
				continue // handled above (divergence or already consistent)
			}
			a, ok := absents[id]
			if !ok {
				absents[id] = &absent{best: pullItem{entry: e, from: d.addr}, holders: 1}
				continue
			}
			a.holders++
			if wire.Supersedes(e.Version, a.best.entry.Version, e.CRC, a.best.entry.CRC) {
				a.best = pullItem{entry: e, from: d.addr}
			}
		}
	}
	for id, a := range absents {
		deficit := replicas - a.holders
		if deficit <= 0 {
			continue
		}
		pass.UnderReplicated++
		// Alive non-holders: self plus every answering peer that did not
		// advertise the object. Rank them by a per-object hash; the
		// lowest deficit ranks pull.
		nonHolders := []string{m.cfg.SelfAddr}
		for i := range diffs {
			if _, holds := diffs[i].missing[id]; !holds {
				nonHolders = append(nonHolders, diffs[i].addr)
			}
		}
		selfRank := 0
		selfKey := pullRank(id, m.cfg.SelfAddr)
		for _, addr := range nonHolders[1:] {
			if pullRank(id, addr) < selfKey {
				selfRank++
			}
		}
		if selfRank < deficit {
			pulls = append(pulls, a.best)
		}
	}
	return pulls
}

// pullRank orders the non-holders of one object deterministically; ties on
// the hash break by address so the order is total.
func pullRank(id object.ID, addr string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write([]byte{'|'})
	h.Write([]byte(addr))
	return h.Sum64()
}

// pull fetches one object from a peer and stores it locally, returning the
// payload bytes transferred.
func (m *Manager) pull(ctx context.Context, p pullItem) (int64, error) {
	c, err := m.peerClient(p.from)
	if err != nil {
		m.met.peerFailure(p.from)
		return 0, err
	}
	start := time.Now()
	o, err := c.GetCtx(ctx, p.entry.ID)
	if err != nil {
		m.met.peerFailure(p.from)
		if !client.IsRemoteError(err) {
			m.dropClient(p.from, c)
		}
		return 0, err
	}
	stored, err := m.cfg.Local.StoreReplica(&wire.Replicate{
		ID:         o.ID,
		Owner:      o.Owner,
		Class:      o.Class,
		Version:    o.Version,
		Importance: o.Importance,
		AgeNanos:   o.AgeNanos,
		Payload:    o.Payload,
	})
	if err != nil {
		return 0, fmt.Errorf("store replica %s: %w", o.ID, err)
	}
	if !stored {
		return 0, nil // our copy caught up while the pull was in flight
	}
	m.met.peerPulled(p.from, time.Since(start))
	sc, _ := telemetry.FromContext(ctx)
	m.cfg.Events.Record(telemetry.Event{
		Kind: telemetry.EventReplicaPull, ID: string(o.ID),
		Peer: p.from, Trace: sc.Trace, Importance: o.Importance.At(0),
	})
	return int64(len(o.Payload)), nil
}
