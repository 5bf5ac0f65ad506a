// Package member maintains live cluster membership for Besteffs nodes: a
// gossip heartbeat over TCP in which every node advertises its address, its
// importance boundary (the highest importance a put would currently
// preempt -- the Section 5.3 placement key), and its free capacity and
// importance density. The same heartbeat carries a push-sum share (package
// gossip's protocol, here on the real wire) so every node converges on the
// cluster-wide average density, the paper's Section 5.1.2 feedback signal,
// without any central component.
//
// Heartbeats are ordinary wire frames (OpGossip) sent to each peer's
// serving address, so membership needs no second port: the storage server
// answers gossip next to puts and gets. Failure detection is indirect
// freshness: only the origin node bumps its own advertisement version, so
// when a node dies its advertisement stops getting fresher anywhere, and
// every peer independently times it out after DeadAfter.
package member

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"besteffs/internal/gossip"
	"besteffs/internal/metrics"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// ErrConfigMismatch reports a gossip exchange rejected because the two
// sides hold conflicting cluster configs at the same version: neither can
// adopt the other, so an operator must mint a newer version.
var ErrConfigMismatch = errors.New("member: cluster config mismatch")

// Config configures an Agent.
type Config struct {
	// Addr is this node's advertised (and serving) address. Required.
	Addr string
	// Self reports the node's live placement state: importance boundary,
	// free bytes, and importance density. Required.
	Self func() (boundary float64, free int64, density float64)
	// Seeds are addresses to contact at startup.
	Seeds []string
	// Interval is the heartbeat period (default 500ms).
	Interval time.Duration
	// Fanout is how many peers each heartbeat contacts (default 2).
	Fanout int
	// DeadAfter is how long a peer's advertisement may go stale before
	// the peer is considered dead (default 5*Interval).
	DeadAfter time.Duration
	// Epoch is the push-sum epoch length: each epoch restarts the average
	// from local values, so mass lost to dead nodes or dropped shares
	// washes out instead of skewing the estimate forever (default
	// 20*Interval).
	Epoch time.Duration
	// DialTimeout bounds one gossip exchange (default 2s).
	DialTimeout time.Duration
	// Dial overrides the transport (tests inject faultnet here). Default
	// is a plain TCP dial.
	Dial func(addr string) (net.Conn, error)
	// Logger defaults to slog.Default.
	Logger *slog.Logger
	// Seed seeds peer selection; 0 uses the boot time.
	Seed int64
	// Registry receives the per-peer gossip counters and the
	// besteffs_member_alive gauges; nil uses a private registry.
	Registry *metrics.Registry
	// Events receives flight-recorder events for membership transitions;
	// nil disables recording (a nil ring drops events).
	Events *telemetry.Ring[telemetry.Event]
	// Device is this node's TLS device ID, advertised to peers; "" on
	// cleartext clusters.
	Device string
	// Cluster is the node's initial cluster config. Version 0 means the
	// node has no opinion and adopts whatever the cluster gossips back;
	// the policy fields still describe the node's flag-derived defaults so
	// adoption of a conflicting policy is detectable and recorded.
	Cluster wire.ClusterConfig
}

// entry is one peer's membership record.
type entry struct {
	info wire.MemberInfo
	// lastSeen advances only on direct contact or strictly fresher
	// indirect news, so a dead peer's record stops advancing everywhere
	// within a few rounds of its last heartbeat.
	lastSeen time.Time
	// alive is the last liveness verdict the transition sweep published
	// (events + besteffs_member_alive gauge); it trails the DeadAfter
	// computation by at most one Tick.
	alive bool
}

// Agent runs the membership protocol for one node.
type Agent struct {
	cfg         Config
	log         *slog.Logger
	incarnation uint64
	reg         *metrics.Registry
	events      *telemetry.Ring[telemetry.Event]

	mu      sync.Mutex
	rng     *rand.Rand
	version uint64
	table   map[string]*entry
	// config is the cluster config this node currently enforces; adopted
	// from gossip when a strictly newer version arrives.
	config wire.ClusterConfig
	// Push-sum state, reset every epoch.
	epoch uint64
	share gossip.State
}

// NewAgent builds an agent; Run starts it.
func NewAgent(cfg Config) (*Agent, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("member: missing Addr")
	}
	if cfg.Self == nil {
		return nil, fmt.Errorf("member: missing Self")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 2
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 5 * cfg.Interval
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = 20 * cfg.Interval
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.Dial == nil {
		timeout := cfg.DialTimeout
		cfg.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	boot := time.Now()
	seed := cfg.Seed
	if seed == 0 {
		seed = boot.UnixNano()
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	a := &Agent{
		cfg:         cfg,
		log:         cfg.Logger,
		incarnation: uint64(boot.UnixNano()),
		reg:         reg,
		events:      cfg.Events,
		rng:         rand.New(rand.NewSource(seed)),
		table:       make(map[string]*entry),
		config:      cfg.Cluster,
	}
	a.configGauge().Set(float64(a.config.Version))
	for _, s := range cfg.Seeds {
		if s == "" || s == cfg.Addr {
			continue
		}
		// Seeds start with a zero advertisement; any real heartbeat from
		// them is fresher and replaces it.
		a.table[s] = &entry{info: wire.MemberInfo{Addr: s}, lastSeen: boot}
	}
	return a, nil
}

// fresher reports whether advertisement x carries strictly newer news than
// y: a later incarnation (reboot), or the same incarnation at a higher
// version (a newer heartbeat from the same process).
func fresher(x, y wire.MemberInfo) bool {
	if x.Incarnation != y.Incarnation {
		return x.Incarnation > y.Incarnation
	}
	return x.Version > y.Version
}

// selfStat is one sample of the cfg.Self callback. The callback reaches
// back into the caller's store (the production one reads the admission
// boundary and free space under the store's own locks), so it must never
// run while a.mu is held: a.mu stays a leaf in the lock order. Every path
// that needs the values samples them BEFORE locking and passes them in.
type selfStat struct {
	boundary float64
	free     int64
	density  float64
}

// sampleSelf reads the placement callback. Callers must NOT hold a.mu.
func (a *Agent) sampleSelf() selfStat {
	boundary, free, density := a.cfg.Self()
	return selfStat{boundary: boundary, free: free, density: density}
}

// selfLocked builds this node's current advertisement from a pre-lock
// sample. Callers hold a.mu.
func (a *Agent) selfLocked(st selfStat) wire.MemberInfo {
	return wire.MemberInfo{
		Addr:          a.cfg.Addr,
		Incarnation:   a.incarnation,
		Version:       a.version,
		Boundary:      st.boundary,
		Free:          st.free,
		Density:       st.density,
		Alive:         true,
		Device:        a.cfg.Device,
		ConfigVersion: a.config.Version,
	}
}

// ClusterConfig returns the config this node currently enforces. The repair
// manager reads it so replication factor and threshold track the cluster,
// not the boot flags.
func (a *Agent) ClusterConfig() wire.ClusterConfig {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.config
}

// configGauge mints the gauge operators compare across nodes to confirm the
// cluster has converged on one policy.
func (a *Agent) configGauge() *metrics.Gauge {
	return a.reg.Gauge("besteffs_cluster_config_version",
		"version of the cluster config this node is enforcing (0 = none adopted yet)")
}

// applyConfigLocked folds a config carried by gossip into this node's:
// strictly newer versions are adopted, equal versions must agree on policy
// or the exchange is rejected with ErrConfigMismatch, older versions are
// ignored (the reply carries ours, so the peer adopts). Both the adoption
// of a different policy and a rejection leave a config-mismatch
// flight-recorder event behind. Callers hold a.mu.
func (a *Agent) applyConfigLocked(c wire.ClusterConfig, peer string) error {
	switch {
	case c.IsZero() || c.Version < a.config.Version:
		return nil
	case c.Version == a.config.Version:
		if a.config.IsZero() || c.SamePolicy(a.config) {
			return nil
		}
		a.events.Record(telemetry.Event{
			Kind: telemetry.EventConfigMismatch, Peer: peer,
			Detail: fmt.Sprintf("conflicting policy at config v%d (origin %s vs %s)",
				c.Version, c.Origin, a.config.Origin),
		})
		a.log.Warn("cluster config conflict", "peer", peer, "version", c.Version)
		return fmt.Errorf("%w: conflicting policy at version %d", ErrConfigMismatch, c.Version)
	default: // strictly newer: adopt
		if !c.SamePolicy(a.config) {
			a.events.Record(telemetry.Event{
				Kind: telemetry.EventConfigMismatch, Peer: peer,
				Detail: fmt.Sprintf("adopted config v%d from %s (was v%d)",
					c.Version, c.Origin, a.config.Version),
			})
			a.log.Info("adopted cluster config", "peer", peer,
				"version", c.Version, "origin", c.Origin,
				"replicas", c.Replicas, "threshold", c.Threshold)
		}
		a.config = c
		a.configGauge().Set(float64(c.Version))
		return nil
	}
}

// merge folds one advertisement into the table. Direct contact (the peer
// itself spoke to us) always refreshes liveness; indirect news refreshes it
// only when strictly fresher, so third-hand copies of a dead node's last
// words cannot keep it alive.
func (a *Agent) mergeLocked(mi wire.MemberInfo, direct bool, now time.Time) {
	if mi.Addr == "" || mi.Addr == a.cfg.Addr {
		return // we are authoritative about ourselves
	}
	e, ok := a.table[mi.Addr]
	if !ok {
		a.table[mi.Addr] = &entry{info: mi, lastSeen: now}
		return
	}
	if fresher(mi, e.info) {
		e.info = mi
		e.lastSeen = now
	} else if direct {
		e.lastSeen = now
	}
}

// snapshotLocked builds the membership list to gossip: self plus every
// known peer, with Alive computed from this node's own freshness view.
func (a *Agent) snapshotLocked(now time.Time, st selfStat) []wire.MemberInfo {
	out := make([]wire.MemberInfo, 0, len(a.table)+1)
	out = append(out, a.selfLocked(st))
	for _, e := range a.table {
		mi := e.info
		mi.Alive = now.Sub(e.lastSeen) < a.cfg.DeadAfter
		out = append(out, mi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// currentEpoch maps wall time to a push-sum epoch number.
func (a *Agent) currentEpoch(now time.Time) uint64 {
	return uint64(now.UnixNano()) / uint64(a.cfg.Epoch)
}

// rollEpochLocked resets the push-sum state when the epoch advances,
// re-baselining this node's share from the pre-lock self sample.
func (a *Agent) rollEpochLocked(now time.Time, st selfStat) {
	if ep := a.currentEpoch(now); ep != a.epoch {
		a.epoch = ep
		a.share = gossip.State{Value: st.density, Weight: 1}
	}
}

// Members returns the full membership view, self included, sorted by
// address, with Alive computed against DeadAfter.
func (a *Agent) Members() []wire.MemberInfo {
	now := time.Now()
	st := a.sampleSelf()
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.snapshotLocked(now, st)
}

// AlivePeers returns the peers (self excluded) currently considered alive.
func (a *Agent) AlivePeers() []wire.MemberInfo {
	now := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []wire.MemberInfo
	for _, e := range a.table {
		if now.Sub(e.lastSeen) < a.cfg.DeadAfter {
			mi := e.info
			mi.Alive = true
			out = append(out, mi)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// DensityEstimate returns this node's current estimate of the cluster-wide
// average importance density (its own density until the first exchange of
// an epoch completes).
func (a *Agent) DensityEstimate() float64 {
	st := a.sampleSelf()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.share.Weight <= 0 {
		return st.density
	}
	return a.share.Estimate()
}

// HandleGossip answers one inbound heartbeat: reconcile cluster configs,
// merge the sender's view, absorb its push-sum share, and return this
// node's view plus a return share (push-pull doubles the mixing rate of
// one exchange). A sender whose config conflicts with ours at an equal
// version is rejected with a CodeConfigMismatch error before its view is
// merged: a node enforcing a different policy must not shape this one's
// membership or density estimate.
func (a *Agent) HandleGossip(g *wire.Gossip) wire.Message {
	now := time.Now()
	st := a.sampleSelf()
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.applyConfigLocked(g.Config, g.From.Addr); err != nil {
		return &wire.ErrorMsg{Code: wire.CodeConfigMismatch, Text: err.Error()}
	}
	a.rollEpochLocked(now, st)
	a.mergeLocked(g.From, true, now)
	for _, mi := range g.Members {
		a.mergeLocked(mi, false, now)
	}
	res := &wire.GossipResult{Epoch: a.epoch, Members: a.snapshotLocked(now, st), Config: a.config}
	if g.Epoch == a.epoch && g.ShareWeight > 0 {
		// Absorb the incoming share, then send half of the combined state
		// back. Different-epoch shares are dropped: each epoch's average
		// is computed only from that epoch's mass.
		a.share.Absorb(gossip.State{Value: g.ShareValue, Weight: g.ShareWeight})
		back := a.share.Split()
		res.ShareValue, res.ShareWeight = back.Value, back.Weight
	}
	return res
}

// Run heartbeats every Interval until ctx is cancelled.
func (a *Agent) Run(ctx context.Context) {
	a.Tick(ctx)
	ticker := time.NewTicker(a.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			a.Tick(ctx)
		}
	}
}

// sweepLocked publishes liveness transitions: any peer whose DeadAfter
// verdict changed since the last sweep gets a member-up or member-down
// flight-recorder event and its besteffs_member_alive gauge flipped. The
// verdict itself stays a pure function of lastSeen (Members and AlivePeers
// compute it directly); the sweep only publishes edges, so it can lag by a
// heartbeat without anyone observing stale liveness. Callers hold a.mu.
func (a *Agent) sweepLocked(now time.Time) {
	for addr, e := range a.table {
		alive := now.Sub(e.lastSeen) < a.cfg.DeadAfter
		if alive == e.alive {
			continue
		}
		e.alive = alive
		val, kind := 0.0, telemetry.EventMemberDown
		if alive {
			val, kind = 1.0, telemetry.EventMemberUp
		}
		a.reg.Gauge("besteffs_member_alive",
			"1 while the peer's advertisement is fresh, 0 once it ages past DeadAfter",
			metrics.L("peer", addr)).Set(val)
		a.events.Record(telemetry.Event{Kind: kind, Peer: addr})
		a.log.Info("membership transition", "peer", addr, "alive", alive)
	}
}

// Tick runs one heartbeat round: bump the advertisement version, roll the
// push-sum epoch if due, publish the density estimate, sweep liveness
// transitions, and exchange views with up to Fanout peers.
func (a *Agent) Tick(ctx context.Context) {
	now := time.Now()
	st := a.sampleSelf()
	a.mu.Lock()
	a.version++
	a.rollEpochLocked(now, st)
	a.reg.Gauge("besteffs_cluster_density_estimate",
		"this node's push-sum estimate of the cluster-average importance density (the Section 5.3 annotation feedback)").
		Set(a.share.Estimate())
	a.sweepLocked(now)
	targets := a.pickLocked(now)
	a.mu.Unlock()
	for _, addr := range targets {
		if ctx.Err() != nil {
			return
		}
		a.exchange(addr)
	}
}

// pickLocked selects up to Fanout gossip targets, preferring alive peers
// but always including dead ones with some probability so a restarted peer
// (or a healed partition) is rediscovered without waiting for it to dial
// us.
func (a *Agent) pickLocked(now time.Time) []string {
	var alive, dead []string
	for addr, e := range a.table {
		if now.Sub(e.lastSeen) < a.cfg.DeadAfter {
			alive = append(alive, addr)
		} else {
			dead = append(dead, addr)
		}
	}
	a.rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	targets := alive
	if len(targets) > a.cfg.Fanout {
		targets = targets[:a.cfg.Fanout]
	}
	if len(dead) > 0 && (len(alive) == 0 || a.rng.Intn(4) == 0) {
		targets = append(targets, dead[a.rng.Intn(len(dead))])
	}
	return targets
}

// exchange runs one push-pull gossip round trip with addr.
func (a *Agent) exchange(addr string) {
	now := time.Now()
	st := a.sampleSelf()
	a.mu.Lock()
	a.rollEpochLocked(now, st)
	// Keep half the share, send half. A failed send restores the sent
	// half, so only genuinely in-flight loss (a crash mid-exchange) costs
	// mass -- and the epoch roll re-baselines even that.
	sent := a.share.Split()
	g := &wire.Gossip{
		From:        a.selfLocked(st),
		Epoch:       a.epoch,
		ShareValue:  sent.Value,
		ShareWeight: sent.Weight,
		Members:     a.snapshotLocked(now, st),
		Config:      a.config,
	}
	a.mu.Unlock()

	start := time.Now()
	res, err := a.roundTrip(addr, g)
	rtt := time.Since(start)

	a.mu.Lock()
	defer a.mu.Unlock()
	if err != nil {
		a.reg.Counter("besteffs_gossip_failures_total",
			"failed gossip exchanges, by peer", metrics.L("peer", addr)).Inc()
		if a.epoch == g.Epoch {
			// Undo the split; the share never left.
			a.share.Absorb(sent)
		}
		if errors.Is(err, ErrConfigMismatch) {
			// The peer refused our config: record the rejection on this side
			// too, so both flight recorders explain the stalled join.
			a.events.Record(telemetry.Event{
				Kind: telemetry.EventConfigMismatch, Peer: addr, Detail: err.Error(),
			})
			a.log.Warn("gossip rejected over cluster config", "peer", addr, "err", err)
		} else {
			a.log.Debug("gossip exchange failed", "peer", addr, "err", err)
		}
		return
	}
	a.reg.Counter("besteffs_gossip_exchanges_total",
		"completed gossip exchanges, by peer", metrics.L("peer", addr)).Inc()
	a.reg.Histogram("besteffs_gossip_rtt_seconds",
		"round-trip time of completed gossip exchanges, by peer",
		metrics.LatencyBuckets, metrics.L("peer", addr)).Observe(rtt.Seconds())
	// The reply carries the peer's config; adopt a newer one. A conflict at
	// equal versions was already recorded by applyConfigLocked -- drop the
	// rest of the reply, the peer is enforcing a different policy.
	if err := a.applyConfigLocked(res.Config, addr); err != nil {
		return
	}
	now = time.Now()
	for _, mi := range res.Members {
		// The response proves the peer itself is alive; everything else in
		// its view is indirect.
		a.mergeLocked(mi, mi.Addr == addr, now)
	}
	if e, ok := a.table[addr]; ok {
		e.lastSeen = now
	}
	if res.Epoch == a.epoch && res.ShareWeight > 0 {
		a.share.Absorb(gossip.State{Value: res.ShareValue, Weight: res.ShareWeight})
	}
	// A successful exchange can flip a formerly dead peer back up; publish
	// the edge now instead of waiting out the next heartbeat.
	a.sweepLocked(now)
}

// roundTrip performs one framed request/response exchange with addr.
func (a *Agent) roundTrip(addr string, g *wire.Gossip) (*wire.GossipResult, error) {
	conn, err := a.cfg.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(a.cfg.DialTimeout)); err != nil {
		return nil, err
	}
	body, err := wire.Encode(g)
	if err != nil {
		return nil, err
	}
	if err := wire.WriteFrame(conn, body); err != nil {
		return nil, err
	}
	respBody, err := wire.ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	msg, err := wire.Decode(respBody)
	if err != nil {
		return nil, err
	}
	res, ok := msg.(*wire.GossipResult)
	if !ok {
		if em, ok := msg.(*wire.ErrorMsg); ok && em.Code == wire.CodeConfigMismatch {
			return nil, fmt.Errorf("%w: rejected by %s: %s", ErrConfigMismatch, addr, em.Text)
		}
		return nil, fmt.Errorf("member: peer %s answered gossip with %v", addr, msg.Op())
	}
	return res, nil
}
