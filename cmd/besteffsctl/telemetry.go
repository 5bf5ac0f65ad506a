package main

// Cluster introspection commands: `trace` reassembles one request's
// cross-node span tree, `cluster-status` merges every member's occupancy
// and repair view into one table, and `events` dumps a node's flight
// recorder. All three fan out: the -addrs list is a set of seeds, expanded
// to every member any seed reports alive, so pointing the tool at one node
// is enough to see the whole cluster.

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"besteffs/internal/client"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// clusterNode is one reachable member during a fan-out command.
type clusterNode struct {
	addr string
	c    *client.Client
}

// discoverAll expands the seed clients to every alive member the seeds
// know about, dialing the extras. The returned closer closes only the
// extra connections; the seeds belong to the caller. Discovery failures
// are not fatal -- introspection over a partial cluster beats no answer --
// but unreachable seeds are reported so a surprising view is explainable.
func discoverAll(ctx context.Context, clients []*client.Client, addrs []string, timeout time.Duration) ([]clusterNode, func()) {
	nodes := make([]clusterNode, 0, len(clients))
	seen := make(map[string]bool, len(clients))
	for i, c := range clients {
		addr := strings.TrimSpace(addrs[i])
		nodes = append(nodes, clusterNode{addr: addr, c: c})
		seen[addr] = true
	}
	var discovered []string
	for _, n := range nodes {
		members, err := n.c.MembersCtx(ctx)
		if err != nil {
			continue // not every node need answer; any one view will do
		}
		for _, m := range members {
			if m.Alive && m.Addr != "" && !seen[m.Addr] {
				seen[m.Addr] = true
				discovered = append(discovered, m.Addr)
			}
		}
		break
	}
	sort.Strings(discovered)
	var extras []*client.Client
	for _, addr := range discovered {
		c, err := client.Connect(addr, client.WithTimeout(timeout), client.WithTLS(dialTLS))
		if err != nil {
			fmt.Fprintf(os.Stderr, "  (discovered member %s unreachable: %v)\n", addr, err)
			continue
		}
		extras = append(extras, c)
		nodes = append(nodes, clusterNode{addr: addr, c: c})
	}
	return nodes, func() {
		for _, c := range extras {
			c.Close()
		}
	}
}

// cmdTrace fans a TRACE_DUMP out to every reachable member and assembles
// the union of their rings into one cross-node timeline. Each node's ring
// only holds the hops that node executed, so the tree is only as complete
// as the set of nodes that answered.
func cmdTrace(ctx context.Context, clients []*client.Client, addrs, args []string, timeout time.Duration) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: trace <trace-id>")
	}
	trace := args[0]
	nodes, closeExtras := discoverAll(ctx, clients, addrs, timeout)
	defer closeExtras()
	var spans []telemetry.Span
	answered := 0
	for _, n := range nodes {
		res, err := n.c.TraceDumpCtx(ctx, trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "  (node %s: %v)\n", n.addr, err)
			continue
		}
		answered++
		spans = append(spans, res.Spans...)
	}
	if answered == 0 {
		return fmt.Errorf("no node answered the trace dump")
	}
	if len(spans) == 0 {
		return fmt.Errorf("no spans recorded for trace %s on %d node(s); "+
			"spans live in bounded rings, so old traces age out", trace, answered)
	}
	roots := telemetry.Assemble(spans)
	fmt.Printf("trace %s: %d span(s) from %d node(s)\n", trace, telemetry.CountSpans(roots), answered)
	telemetry.FormatTree(os.Stdout, roots)
	return nil
}

// cmdClusterStatus merges every reachable member's stats, advertisement and
// repair counters into one table: the operator's single-glance view of
// where capacity, density and repair debt sit across the cluster.
func cmdClusterStatus(ctx context.Context, clients []*client.Client, addrs []string, timeout time.Duration) error {
	nodes, closeExtras := discoverAll(ctx, clients, addrs, timeout)
	defer closeExtras()

	// Boundary and liveness come from the membership advertisements; index
	// them by address from the first node that answers MEMBERS.
	ads := make(map[string]wire.MemberInfo)
	for _, n := range nodes {
		members, err := n.c.MembersCtx(ctx)
		if err != nil {
			continue
		}
		for _, m := range members {
			ads[m.Addr] = m
		}
		break
	}

	var (
		totalCap, totalUsed int64
		totalObjects        int
		totalDeficit        uint64
		densitySum          float64
		answered            int
	)
	fmt.Printf("%-21s %-6s %8s %10s %10s %8s %9s %8s %5s\n",
		"node", "state", "density", "boundary", "used", "objects", "deficit", "pending", "cfgv")
	for _, n := range nodes {
		st, err := n.c.StatCtx(ctx)
		if err != nil {
			fmt.Printf("%-21s %-6s (%v)\n", n.addr, "down", err)
			continue
		}
		answered++
		state, boundary, cfgv := "alive", "-", "-"
		if ad, ok := ads[n.addr]; ok {
			boundary = fmt.Sprintf("%.3f", ad.Boundary)
			cfgv = strconv.FormatUint(ad.ConfigVersion, 10)
			if !ad.Alive {
				state = "dead?" // reachable by us, stale to the cluster
			}
		}
		deficit, pending := "-", "-"
		if rs, err := n.c.RepairStatusCtx(ctx); err == nil {
			deficit = strconv.FormatUint(rs.UnderReplicated, 10)
			pending = strconv.FormatUint(rs.Pending, 10)
			totalDeficit += rs.UnderReplicated
		}
		fmt.Printf("%-21s %-6s %8.4f %10s %10d %8d %9s %8s %5s\n",
			n.addr, state, st.Density, boundary, st.Used, st.Objects, deficit, pending, cfgv)
		// Sharded nodes get one sub-row per shard: where inside the node
		// the density and boundary pressure actually sits.
		if len(st.Shards) > 1 {
			for i, sh := range st.Shards {
				occ := 0.0
				if sh.Capacity > 0 {
					occ = float64(sh.Used) / float64(sh.Capacity)
				}
				fmt.Printf("  shard %-3d          %-6s %8.4f %10.3f %10d %8d (%.1f%% full)\n",
					i, "", sh.Density, sh.Boundary, sh.Used, sh.Objects, 100*occ)
			}
		}
		totalCap += st.Capacity
		totalUsed += st.Used
		totalObjects += st.Objects
		densitySum += st.Density
	}
	if answered == 0 {
		return fmt.Errorf("no node answered")
	}
	occupancy := 0.0
	if totalCap > 0 {
		occupancy = float64(totalUsed) / float64(totalCap)
	}
	fmt.Printf("cluster: %d/%d node(s), %d object(s), %d/%d bytes (%.1f%% full), "+
		"mean density %.4f, repair deficit %d\n",
		answered, len(nodes), totalObjects, totalUsed, totalCap, 100*occupancy,
		densitySum/float64(answered), totalDeficit)
	return nil
}

// cmdEvents dumps each node's flight recorder, most recent last: the same
// black box the server appends to chaos-test failures and SIGQUIT output.
func cmdEvents(ctx context.Context, clients []*client.Client, addrs, args []string) error {
	limit := uint32(0)
	if len(args) > 1 {
		return fmt.Errorf("usage: events [limit]")
	}
	if len(args) == 1 {
		n, err := strconv.ParseUint(args[0], 10, 32)
		if err != nil {
			return fmt.Errorf("bad limit %q: %w", args[0], err)
		}
		limit = uint32(n)
	}
	for i, c := range clients {
		res, err := c.EventsCtx(ctx, limit)
		if err != nil {
			return fmt.Errorf("node %s: %w", addrs[i], err)
		}
		fmt.Printf("%s: %d event(s)\n", addrs[i], len(res.Events))
		for _, e := range res.Events {
			fmt.Printf("  %v\n", e)
		}
	}
	return nil
}
