package client

// ClusterClient: the Section 5.3 placement over real sockets. This file is
// the cluster half of the package -- the node table with its per-node
// circuit breaker, placement (PutCtx, PutBatch) as the live adapter of
// placement.Walk, the fan-out reads, and seed-based discovery:
// DialClusterSeed asks one live node for the membership table and builds
// the cluster client from it, so deployments hand clients a single address
// instead of a static node list. Discovered advertisements (importance
// boundary, free bytes) feed the walk: instead of probing a blind random
// sample, it samples the nodes advertising the lowest boundaries and
// verifies them with probes.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/placement"
	"besteffs/internal/wire"
)

// Node health defaults for ClusterClient.
const (
	// DefaultFailureThreshold is the consecutive transport failures after
	// which a node is ejected.
	DefaultFailureThreshold = 3
	// DefaultEjectFor is how long an ejected node's circuit stays open.
	DefaultEjectFor = 5 * time.Second
)

// node is one cluster member with its health state. A node whose circuit is
// open (recent consecutive failures) is skipped by placement until the
// eject period passes; a node that never connected (partial DialCluster) is
// lazily redialed once its backoff window allows.
type node struct {
	mu          sync.Mutex
	client      *Client // nil while unconnected
	addr        string  // "" when the client wraps a raw conn
	dialTimeout time.Duration
	cfg         Config

	failures  int       // consecutive transport failures
	openUntil time.Time // circuit-open deadline; zero when closed
}

// ClusterClient places objects across many nodes with the Section 5.3
// algorithm. It holds one connection per node, tracks per-node health, and
// is safe for concurrent use. A dead or hung node is marked suspect and the
// client keeps placing on the healthy subset -- the paper's best-effort
// ethos applied to the cluster path itself.
type ClusterClient struct {
	// nodes and adv are fixed at construction, so every node index handed
	// out stays valid for the client's lifetime and neither needs a lock.
	nodes []*node

	rng   *rand.Rand
	rngMu sync.Mutex

	// adv holds the membership advertisement per node address that seed
	// discovery saw; placement prefers the advertised lowest-boundary nodes.
	adv map[string]wire.MemberInfo

	// SampleSize is x, the nodes probed per round.
	SampleSize int
	// MaxTries is m, the sampling rounds before settling.
	MaxTries int
	// FailureThreshold is the consecutive transport failures after which
	// a node's circuit opens. Set before first use.
	FailureThreshold int
	// EjectFor is how long an opened circuit rejects traffic before the
	// node is retried (half-open). Set before first use.
	EjectFor time.Duration

	log *slog.Logger
	met *clientMetrics
}

// newClusterClient assembles a cluster client over prepared nodes and the
// advertisements discovery saw for them (nil when there was no discovery).
func newClusterClient(nodes []*node, rng *rand.Rand, adv map[string]wire.MemberInfo) (*ClusterClient, error) {
	if len(nodes) == 0 {
		return nil, errors.New("client: no nodes")
	}
	if rng == nil {
		return nil, errors.New("client: nil random source")
	}
	cc := &ClusterClient{
		nodes:            nodes,
		rng:              rng,
		adv:              adv,
		SampleSize:       5,
		MaxTries:         3,
		FailureThreshold: DefaultFailureThreshold,
		EjectFor:         DefaultEjectFor,
		log:              slog.Default(),
		met:              newClientMetrics(),
	}
	for _, n := range cc.nodes {
		if n.client != nil {
			n.client.setMetrics(cc.met)
		}
	}
	return cc, nil
}

// NewClusterClient wraps per-node clients. The random source drives node
// sampling (the networked stand-in for overlay random walks). The clients'
// robustness counters are merged into the cluster's shared set, so wrap
// clients before issuing requests on them.
func NewClusterClient(clients []*Client, rng *rand.Rand) (*ClusterClient, error) {
	nodes := make([]*node, len(clients))
	for i, c := range clients {
		if c == nil {
			return nil, fmt.Errorf("client: nil client at index %d", i)
		}
		nodes[i] = &node{
			client:      c,
			addr:        c.addr,
			dialTimeout: c.dialTimeout,
			cfg:         c.cfg,
		}
	}
	return newClusterClient(nodes, rng, nil)
}

// ClusterOption configures DialCluster.
type ClusterOption func(*clusterDialConfig)

type clusterDialConfig struct {
	quorum    int
	clientCfg Config
	haveCfg   bool
}

// WithQuorum enables partial-connect mode: DialCluster succeeds once at
// least n addresses are reachable, leaving the rest as down nodes that are
// lazily redialed when the cluster next considers them. Without this
// option every address must connect (the strict historical behavior).
func WithQuorum(n int) ClusterOption {
	return func(c *clusterDialConfig) { c.quorum = n }
}

// WithClientConfig overrides DefaultConfig for every per-node client.
func WithClientConfig(cfg Config) ClusterOption {
	return func(c *clusterDialConfig) { c.clientCfg, c.haveCfg = cfg, true }
}

// SetLogger replaces the cluster's logger (default slog.Default). Call
// before issuing requests.
func (cc *ClusterClient) SetLogger(l *slog.Logger) {
	if l != nil {
		cc.log = l
	}
}

// Counters reports the cluster's robustness counters: "retries" and
// "reconnects" from the per-node clients, plus "probe_failures",
// "node_ejections", "node_redials" and "commit_fallbacks" from placement.
func (cc *ClusterClient) Counters() map[string]int64 { return cc.met.Snapshot() }

// DialCluster connects to every address and wraps the cluster client. By
// default every address must be reachable; WithQuorum(n) starts with any n
// reachable nodes and lazily redials the rest.
func DialCluster(addrs []string, timeout time.Duration, rng *rand.Rand, opts ...ClusterOption) (*ClusterClient, error) {
	return dialCluster(addrs, timeout, rng, nil, opts...)
}

// dialCluster is DialCluster with the advertisements seed discovery saw.
func dialCluster(addrs []string, timeout time.Duration, rng *rand.Rand, adv map[string]wire.MemberInfo, opts ...ClusterOption) (*ClusterClient, error) {
	cfg := clusterDialConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}
	clientCfg := DefaultConfig()
	if cfg.haveCfg {
		clientCfg = cfg.clientCfg
	}
	need := len(addrs)
	if cfg.quorum > 0 && cfg.quorum < need {
		need = cfg.quorum
	}
	nodes := make([]*node, 0, len(addrs))
	connected := 0
	var firstErr error
	closeAll := func() {
		for _, n := range nodes {
			if n.client != nil {
				n.client.Close()
			}
		}
	}
	for _, addr := range addrs {
		n := &node{addr: addr, dialTimeout: timeout, cfg: clientCfg}
		c, err := dial(addr, timeout, clientCfg)
		if err != nil {
			if cfg.quorum <= 0 {
				closeAll()
				return nil, err
			}
			if firstErr == nil {
				firstErr = err
			}
			// Leave the node down; placement redials it lazily.
			n.failures = 1
		} else {
			n.client = c
			connected++
		}
		nodes = append(nodes, n)
	}
	if connected < need {
		closeAll()
		return nil, fmt.Errorf("client: only %d of %d nodes reachable (quorum %d): %w",
			connected, len(addrs), need, firstErr)
	}
	return newClusterClient(nodes, rng, adv)
}

// Close closes every node connection, returning the first error.
func (cc *ClusterClient) Close() error {
	var first error
	for _, n := range cc.nodes {
		n.mu.Lock()
		c := n.client
		n.mu.Unlock()
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ready returns node i's client when the node is connected and its circuit
// admits traffic, lazily redialing a down node whose eject period expired.
// It returns nil for nodes that should be skipped.
func (cc *ClusterClient) ready(i int) *Client {
	n := cc.nodes[i]
	n.mu.Lock()
	defer n.mu.Unlock()
	if time.Now().Before(n.openUntil) {
		return nil // circuit open
	}
	if n.client == nil {
		if n.addr == "" {
			return nil // wrapped conn that died; nothing to redial
		}
		c, err := dial(n.addr, n.dialTimeout, n.cfg)
		if err != nil {
			cc.markFailureLocked(n, i, err)
			return nil
		}
		c.setMetrics(cc.met)
		n.client = c
		n.failures = 0
		n.openUntil = time.Time{}
		cc.met.Inc("node_redials")
		cc.log.Info("node reconnected", "node", i, "addr", n.addr)
	}
	return n.client
}

// markFailureLocked records a transport failure against n (held locked),
// opening the circuit once failures reach the threshold.
func (cc *ClusterClient) markFailureLocked(n *node, i int, err error) {
	n.failures++
	if n.failures >= cc.FailureThreshold && !time.Now().Before(n.openUntil) {
		n.openUntil = time.Now().Add(cc.EjectFor)
		cc.met.Inc("node_ejections")
		cc.log.Warn("node ejected", "node", i, "addr", n.addr,
			"failures", n.failures, "eject_for", cc.EjectFor, "err", err)
	}
}

// note feeds the outcome of one request to node i into its circuit breaker
// and reports whether the node answered: success and remote verdicts reset
// its health, a transport failure marks it suspect.
func (cc *ClusterClient) note(i int, err error) (answered bool) {
	n := cc.nodes[i]
	n.mu.Lock()
	defer n.mu.Unlock()
	if err != nil && !IsRemoteError(err) {
		cc.markFailureLocked(n, i, err)
		return false
	}
	n.failures = 0
	n.openUntil = time.Time{}
	return true
}

// sample draws up to x distinct node indexes.
func (cc *ClusterClient) sample(x int) []int {
	n := len(cc.nodes)
	cc.rngMu.Lock()
	defer cc.rngMu.Unlock()
	if x >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	seen := make(map[int]bool, x)
	out := make([]int, 0, x)
	for len(out) < x {
		i := cc.rng.Intn(n)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// Placement reports where an object landed.
type Placement struct {
	// Node is the index of the chosen node.
	Node int
	// Boundary is the highest importance preempted there.
	Boundary float64
	// Evicted lists objects reclaimed on that node.
	Evicted []object.ID
}

// IsRemoteError reports whether err is a verdict from a node that answered
// (not-found, duplicate, a protocol violation, or any wire-level error
// frame) rather than a transport failure: the connection it arrived on is
// still good.
func IsRemoteError(err error) bool {
	var remote *wire.ErrorMsg
	return errors.Is(err, ErrNotFound) || errors.Is(err, ErrDuplicate) ||
		errors.Is(err, ErrUnexpected) || errors.As(err, &remote)
}

// walk runs the Section 5.3 placement (placement.Walk) over the cluster's
// nodes for an object of the given size and annotation, handing each
// candidate to commit in the order the rule tries them. This side supplies
// the live half: a round samples the nodes the membership view ranks best,
// a probe is a PROBE round trip, and a node that is down, ejected or fails
// the probe in transport gives no answer and feeds the circuit breaker
// instead of ending the walk. A remote verdict on a probe (the node
// answered, but not with a boundary) aborts it. stored reports whether a
// commit ended the walk; answered counts the nodes whose probe came back.
func (cc *ClusterClient) walk(ctx context.Context, size int64, imp importance.Function,
	commit func(idx int) (stored bool, err error)) (stored bool, answered int, err error) {
	res, err := placement.Walk(cc.MaxTries,
		func(int) ([]int, error) { return cc.placementSample(cc.SampleSize), ctx.Err() },
		func(idx int) (a placement.Answer, ok bool, err error) {
			if err := ctx.Err(); err != nil {
				return a, false, err
			}
			c := cc.ready(idx)
			if c == nil {
				return a, false, nil
			}
			a.Admit, a.Boundary, err = c.ProbeCtx(ctx, size, imp)
			switch {
			case err != nil && ctx.Err() != nil:
				return a, false, ctx.Err()
			case !cc.note(idx, err):
				cc.met.Inc("probe_failures")
				cc.log.Warn("probe failed; node marked suspect", "node", idx, "err", err)
				return a, false, nil
			case err != nil:
				return a, false, fmt.Errorf("probe node %d: %w", idx, err)
			}
			answered++
			return a, true, nil
		},
		commit)
	return res.Unit >= 0, answered, err
}

// unplaced is the error for a walk that stored nothing: the last commit
// failure when there was one, else whether anything answered at all.
func unplaced(lastErr error, answered int, what any) error {
	switch {
	case lastErr != nil:
		return lastErr
	case answered == 0:
		return fmt.Errorf("%w: %v", ErrNoHealthyNodes, what)
	default:
		return fmt.Errorf("%w: %v", ErrClusterFull, what)
	}
}

// PutCtx places an object on the cluster: probe x sampled nodes per round
// for up to m rounds, store immediately on a node with boundary zero,
// otherwise on the admitting node with the lowest boundary, falling back to
// the next boundary when a node dies or fills between probe and put. A node
// whose probe or put fails at the transport level is logged, marked suspect
// and skipped -- the walk continues on the healthy subset -- while a remote
// verdict on the put (duplicate ID, protocol error) ends it. ErrClusterFull
// means no answering node would admit the object; ErrNoHealthyNodes means
// nothing answered at all.
func (cc *ClusterClient) PutCtx(ctx context.Context, req PutRequest) (Placement, error) {
	var placed Placement
	var lastErr error // why the latest commit fell through to the next candidate
	stored, answered, err := cc.walk(ctx, int64(len(req.Payload)), req.Importance,
		func(idx int) (bool, error) {
			if lastErr != nil {
				cc.met.Inc("commit_fallbacks")
			}
			c := cc.ready(idx)
			if c == nil {
				lastErr = fmt.Errorf("put on node %d: %w", idx, ErrNotConnected)
				return false, nil
			}
			r, err := c.PutCtx(ctx, req)
			switch {
			case !cc.note(idx, err):
				cc.log.Warn("commit failed; node marked suspect", "node", idx, "err", err)
				lastErr = fmt.Errorf("put on node %d: %w", idx, err)
			case err != nil:
				return false, fmt.Errorf("put on node %d: %w", idx, err)
			case !r.Admitted:
				// The node's state moved between probe and put.
				lastErr = fmt.Errorf("%w: %s (node %d refused after probe)", ErrClusterFull, req.ID, idx)
			default:
				placed = Placement{Node: idx, Boundary: r.Boundary, Evicted: r.Evicted}
				return true, nil
			}
			return false, nil
		})
	if err != nil {
		return Placement{}, err
	}
	if !stored {
		return Placement{}, unplaced(lastErr, answered, req.ID)
	}
	return placed, nil
}

// ClusterBatchOutcome is one sub-request's result from
// ClusterClient.PutBatch: the node that answered it plus its admission
// verdict or individual error. Node is -1 when nothing answered it.
type ClusterBatchOutcome struct {
	Node   int
	Result PutResult
	Err    error
}

// PutBatch spreads a batch across the cluster by probe boundary: it runs the
// placement walk with the batch's largest object, taking the nodes in the
// order the walk would try them (boundary zero as found, then ascending
// boundary -- the cheapest space first) until it has one per request or the
// rounds run out, splits the batch into contiguous chunks across them, and
// ships each chunk as one pipelined BATCH frame, concurrently. Outcomes are
// positional. When no node admits the probe the whole call fails
// (ErrNoHealthyNodes if nothing even answered); when a chunk's node fails
// mid-flight its sub-requests carry the error while other chunks keep their
// outcomes.
func (cc *ClusterClient) PutBatch(ctx context.Context, reqs []PutRequest) ([]ClusterBatchOutcome, error) {
	out := make([]ClusterBatchOutcome, len(reqs))
	for i := range out {
		out[i].Node = -1
	}
	if len(reqs) == 0 {
		return out, nil
	}
	// Probe with the hardest member: the largest payload and its own
	// annotation. Nodes that admit it will usually admit the rest; the
	// per-sub verdicts settle anything the approximation misses.
	worst := 0
	for i, r := range reqs {
		if len(r.Payload) > len(reqs[worst].Payload) {
			worst = i
		}
	}
	var ranked []int
	_, answered, err := cc.walk(ctx, int64(len(reqs[worst].Payload)), reqs[worst].Importance,
		func(idx int) (bool, error) {
			ranked = append(ranked, idx)
			return len(ranked) == len(reqs), nil
		})
	if err != nil {
		return out, err
	}
	if len(ranked) == 0 {
		return out, unplaced(nil, answered, fmt.Sprintf("batch of %d", len(reqs)))
	}

	// Contiguous even split across the admitting nodes, best first.
	var wg sync.WaitGroup
	for k, idx := range ranked {
		start := k * len(reqs) / len(ranked)
		end := (k + 1) * len(reqs) / len(ranked)
		wg.Add(1)
		go func(idx, start, end int) {
			defer wg.Done()
			c := cc.ready(idx)
			if c == nil {
				for i := start; i < end; i++ {
					out[i].Err = fmt.Errorf("batch chunk on node %d: %w", idx, ErrNotConnected)
				}
				return
			}
			outcomes, err := c.PutBatch(ctx, reqs[start:end])
			cc.note(idx, err)
			for i, o := range outcomes {
				out[start+i] = ClusterBatchOutcome{Node: idx, Result: o.Result, Err: o.Err}
			}
		}(idx, start, end)
	}
	wg.Wait()
	var firstErr error
	for i := range out {
		if out[i].Err != nil && !IsRemoteError(out[i].Err) {
			firstErr = out[i].Err
			break
		}
	}
	return out, firstErr
}

// GetCtx retrieves an object by asking every node until one has it. Dead or
// ejected nodes are skipped; an object stored only on a dead node reports
// ErrNotFound until the node returns.
func (cc *ClusterClient) GetCtx(ctx context.Context, id object.ID) (*wire.ObjectMsg, error) {
	answered := 0
	for i := range cc.nodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := cc.ready(i)
		if c == nil {
			continue
		}
		o, err := c.GetCtx(ctx, id)
		switch {
		case !cc.note(i, err):
		case errors.Is(err, ErrNotFound):
			answered++
		default:
			return o, err
		}
	}
	if answered == 0 {
		return nil, fmt.Errorf("%w: get %s", ErrNoHealthyNodes, id)
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
}

// AverageDensityCtx averages the density across the reachable nodes.
func (cc *ClusterClient) AverageDensityCtx(ctx context.Context) (float64, error) {
	total := 0.0
	answered := 0
	for i := range cc.nodes {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		c := cc.ready(i)
		if c == nil {
			continue
		}
		d, err := c.DensityCtx(ctx)
		if !cc.note(i, err) {
			continue
		}
		if err != nil {
			return 0, fmt.Errorf("density of node %d: %w", i, err)
		}
		total += d
		answered++
	}
	if answered == 0 {
		return 0, ErrNoHealthyNodes
	}
	return total / float64(answered), nil
}

// DialClusterSeed discovers the cluster from one seed node: it connects to
// the seed, fetches the membership table, and builds a ClusterClient over
// every known-alive member (the seed included). Discovery is best-effort
// membership, so the client starts with whatever subset is reachable
// (quorum 1 unless overridden) and lazily dials the rest. Nodes that join
// later are not picked up; dial again to see them.
func DialClusterSeed(ctx context.Context, seed string, timeout time.Duration, rng *rand.Rand, opts ...ClusterOption) (*ClusterClient, error) {
	// The probe dial must honor the caller's client config -- a TLS cluster
	// rejects a cleartext discovery connection outright.
	probe := clusterDialConfig{}
	for _, opt := range opts {
		opt(&probe)
	}
	seedCfg := DefaultConfig()
	if probe.haveCfg {
		seedCfg = probe.clientCfg
	}
	sc, err := dial(seed, timeout, seedCfg)
	if err != nil {
		return nil, fmt.Errorf("client: discover via %s: %w", seed, err)
	}
	members, err := sc.MembersCtx(ctx)
	closeErr := sc.Close()
	if err != nil {
		return nil, fmt.Errorf("client: discover via %s: %w", seed, err)
	}
	_ = closeErr // discovery connection; the cluster redials on demand
	addrs := []string{seed}
	adv := map[string]wire.MemberInfo{}
	for _, mi := range members {
		if mi.Addr == "" {
			continue
		}
		adv[mi.Addr] = mi
		if mi.Addr != seed && mi.Alive {
			addrs = append(addrs, mi.Addr)
		}
	}
	// Membership is live state: unreachable members must not fail the
	// dial, so default to quorum 1 unless the caller asked otherwise.
	if probe.quorum <= 0 {
		opts = append(opts, WithQuorum(1))
	}
	return dialCluster(addrs, timeout, rng, adv, opts...)
}

// advertised returns the advertisement discovery saw for a node, if any.
func (cc *ClusterClient) advertised(n *node) (wire.MemberInfo, bool) {
	if n.addr == "" {
		return wire.MemberInfo{}, false
	}
	mi, ok := cc.adv[n.addr]
	return mi, ok
}

// placementSample picks the nodes for one placement round. With live
// advertisements the walk goes where the membership layer says the cheapest
// space is: the x-1 alive nodes the shared ordering ranks best (lowest
// advertised boundary, then most free bytes), plus one random node so the
// view never ossifies. Without advertisements it falls back to the blind
// random sample.
func (cc *ClusterClient) placementSample(x int) []int {
	type ranked struct {
		idx int
		mi  wire.MemberInfo
	}
	var advised []ranked
	for i, n := range cc.nodes {
		if mi, ok := cc.advertised(n); ok && mi.Alive {
			advised = append(advised, ranked{i, mi})
		}
	}
	if len(advised) == 0 {
		return cc.sample(x)
	}
	placement.Rank(advised, func(r ranked) placement.Advert {
		return placement.Advert{Boundary: r.mi.Boundary, Free: r.mi.Free, Addr: r.mi.Addr}
	})
	take := x - 1
	if take < 1 {
		take = 1
	}
	if take > len(advised) {
		take = len(advised)
	}
	out := make([]int, 0, take+1)
	seen := make(map[int]bool, take+1)
	for _, r := range advised[:take] {
		out = append(out, r.idx)
		seen[r.idx] = true
	}
	for _, i := range cc.sample(x) {
		if len(out) >= x {
			break
		}
		if !seen[i] {
			out = append(out, i)
			seen[i] = true
		}
	}
	return out
}
