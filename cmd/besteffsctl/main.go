// Command besteffsctl is the client CLI for Besteffs storage nodes.
//
// Usage:
//
//	besteffsctl [-addrs HOST:PORT[,HOST:PORT...]] <command> [args]
//
// Commands:
//
//	put <id> <file> -importance <spec> [-owner NAME] [-class N]
//	    store a file; with several -addrs the paper's placement
//	    algorithm (probe x nodes, up to m rounds, lowest boundary) picks
//	    the node
//	get <id> [file]     retrieve an object (to stdout or a file)
//	delete <id>         remove an object (single node only)
//	stat                print capacity, usage and density per node
//	probe <size> -importance <spec>
//	    ask each node for the admission boundary of a hypothetical object
//	rejuvenate <id> -importance <spec>
//	    replace an object's annotation with a fresh one aging from now
//	    (single node only)
//	density             print the storage importance density per node,
//	                    plus the sampled density trajectory (time, density,
//	                    used bytes, importance boundary) from nodes running
//	                    with -sample
//	list                list resident object IDs per node
//	members             print each node's membership table: every known
//	                    member with its advertised importance boundary, free
//	                    bytes, density and liveness
//	repair-status       print each node's replication factor, threshold and
//	                    repair counters (pushed, pulled, under-replicated...)
//	trace <trace-id>    fan a TRACE_DUMP out to every live member and print
//	                    the assembled cross-node span tree with per-hop
//	                    latencies; put prints the trace ID to feed this
//	cluster-status      merge every live member's density, boundary,
//	                    occupancy and repair deficit into one table
//	events [limit]      dump each node's flight recorder (admissions,
//	                    evictions, boundary moves, replica traffic,
//	                    membership transitions), most recent last
//	fsck <data-dir>     offline integrity check of a stopped node's data
//	                    directory: verifies WAL segment and checkpoint CRCs,
//	                    blob payload CRCs, and cross-checks residents against
//	                    payload files; exits nonzero on hard damage
//
// Importance specs use the syntax of importance.ParseSpec, e.g.
// "twostep:p=1,persist=15d,wane=15d", "constant:p=0.5", "dirac".
//
// Against a TLS cluster, pass -tls -tls-dir DIR: the directory holds this
// client's certificate (minted on first use) and the tool prints its device
// ID, which operators pin in besteffsd's -tls-peers allowlist.
package main

import (
	"context"
	"crypto/tls"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"besteffs/internal/client"
	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/secure"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// dialTLS is the client TLS configuration every dial in this process shares
// (the -addrs seeds and the extra connections fan-out discovery opens); nil
// means cleartext. Set once in run from -tls/-tls-dir.
var dialTLS *tls.Config

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "besteffsctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("besteffsctl", flag.ContinueOnError)
	addrs := fs.String("addrs", "127.0.0.1:7459", "comma-separated node addresses")
	impSpec := fs.String("importance", "twostep:p=1,persist=30d,wane=30d", "importance spec for put/probe")
	owner := fs.String("owner", "", "object owner for put")
	class := fs.Int("class", 0, "object class for put (0 generic, 1 university, 2 student)")
	timeout := fs.Duration("timeout", 5*time.Second, "dial timeout")
	tlsOn := fs.Bool("tls", false, "dial nodes over TLS with mutual authentication")
	tlsDir := fs.String("tls-dir", "", "directory for this client's certificate and key (created on first use; needs -tls)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tlsDir != "" && !*tlsOn {
		return fmt.Errorf("-tls-dir needs -tls")
	}
	if *tlsOn {
		if *tlsDir == "" {
			return fmt.Errorf("-tls needs -tls-dir")
		}
		cert, err := secure.LoadOrCreate(*tlsDir)
		if err != nil {
			return err
		}
		id, err := secure.IDFromTLSCert(cert)
		if err != nil {
			return err
		}
		// The client identity must be in the nodes' -tls-peers allowlist
		// (unless the cluster runs open); print it so the operator can pin it.
		fmt.Fprintf(os.Stderr, "(client device %s)\n", id.Short())
		dialTLS = secure.ClientConfig(cert, nil)
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("need a command")
	}
	cmd, rest := fs.Arg(0), fs.Args()[1:]

	// Every request runs under this context: Ctrl-C cancels in-flight round
	// trips instead of abandoning the terminal to a hung dial.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// fsck works offline on a data directory; handle it before dialing so it
	// runs exactly when the daemon is down (the only safe time).
	if cmd == "fsck" {
		if len(rest) != 1 {
			return fmt.Errorf("usage: fsck <data-dir>")
		}
		return cmdFsck(rest[0], os.Stdout)
	}

	addrList := strings.Split(*addrs, ",")
	clients := make([]*client.Client, 0, len(addrList))
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for _, addr := range addrList {
		c, err := client.Connect(strings.TrimSpace(addr),
			client.WithTimeout(*timeout), client.WithTLS(dialTLS))
		if err != nil {
			return err
		}
		clients = append(clients, c)
	}

	switch cmd {
	case "put":
		return cmdPut(ctx, clients, rest, *impSpec, *owner, *class)
	case "get":
		return cmdGet(ctx, clients, rest)
	case "delete":
		if len(rest) != 1 {
			return fmt.Errorf("usage: delete <id>")
		}
		if len(clients) != 1 {
			return fmt.Errorf("delete needs exactly one -addrs node")
		}
		return clients[0].DeleteCtx(ctx, object.ID(rest[0]))
	case "rejuvenate":
		if len(rest) != 1 {
			return fmt.Errorf("usage: rejuvenate <id>")
		}
		if len(clients) != 1 {
			return fmt.Errorf("rejuvenate needs exactly one -addrs node")
		}
		imp, err := importance.ParseSpec(*impSpec)
		if err != nil {
			return err
		}
		version, err := clients[0].RejuvenateCtx(ctx, object.ID(rest[0]), imp)
		if err != nil {
			return err
		}
		fmt.Printf("rejuvenated %s to version %d with %s\n", rest[0], version, *impSpec)
		return nil
	case "stat":
		return cmdStat(ctx, clients, addrList)
	case "probe":
		return cmdProbe(ctx, clients, addrList, rest, *impSpec)
	case "density":
		return cmdDensity(ctx, clients, addrList)
	case "list":
		return cmdList(ctx, clients, addrList)
	case "members":
		return cmdMembers(ctx, clients, addrList)
	case "repair-status":
		return cmdRepairStatus(ctx, clients, addrList)
	case "trace":
		return cmdTrace(ctx, clients, addrList, rest, *timeout)
	case "cluster-status":
		return cmdClusterStatus(ctx, clients, addrList, *timeout)
	case "events":
		return cmdEvents(ctx, clients, addrList, rest)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func cmdPut(ctx context.Context, clients []*client.Client, args []string, impSpec, owner string, class int) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: put <id> <file>")
	}
	imp, err := importance.ParseSpec(impSpec)
	if err != nil {
		return err
	}
	payload, err := os.ReadFile(args[1])
	if err != nil {
		return fmt.Errorf("read payload: %w", err)
	}
	req := client.PutRequest{
		ID:         object.ID(args[0]),
		Owner:      owner,
		Class:      object.Class(class),
		Importance: imp,
		Payload:    payload,
	}
	// Run the put under a fresh root trace and print its ID, so the stored
	// object's whole fan-out (placement probes, the put, replica pushes) can
	// be replayed with `besteffsctl trace <id>`.
	sc := telemetry.NewRoot()
	ctx = telemetry.NewContext(ctx, sc)
	if len(clients) == 1 {
		res, err := clients[0].PutCtx(ctx, req)
		if err != nil {
			return err
		}
		if !res.Admitted {
			return fmt.Errorf("rejected (%s) at importance boundary %.3f", policy.Reason(res.Reason), res.Boundary)
		}
		fmt.Printf("stored %s (%d bytes); preempted %d object(s), highest importance %.3f\n",
			req.ID, len(payload), len(res.Evicted), res.Boundary)
		fmt.Printf("trace %s\n", sc.Trace)
		return nil
	}
	cc, err := client.NewClusterClient(clients, rand.New(rand.NewSource(time.Now().UnixNano())))
	if err != nil {
		return err
	}
	p, err := cc.PutCtx(ctx, req)
	if err != nil {
		return err
	}
	fmt.Printf("stored %s on node %d (boundary %.3f, %d eviction(s))\n",
		req.ID, p.Node, p.Boundary, len(p.Evicted))
	fmt.Printf("trace %s\n", sc.Trace)
	return nil
}

func cmdGet(ctx context.Context, clients []*client.Client, args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: get <id> [file]")
	}
	id := object.ID(args[0])
	var (
		obj *wire.ObjectMsg
		err error
	)
	if len(clients) == 1 {
		obj, err = clients[0].GetCtx(ctx, id)
	} else {
		var cc *client.ClusterClient
		cc, err = client.NewClusterClient(clients, rand.New(rand.NewSource(1)))
		if err != nil {
			return err
		}
		obj, err = cc.GetCtx(ctx, id)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: %d bytes, owner %q, class %s, age %s, current importance %.3f\n",
		obj.ID, len(obj.Payload), obj.Owner, obj.Class, time.Duration(obj.AgeNanos).Round(time.Second), obj.CurrentImportance)
	if len(args) == 2 {
		if err := os.WriteFile(args[1], obj.Payload, 0o644); err != nil {
			return fmt.Errorf("write payload: %w", err)
		}
		return nil
	}
	_, err = os.Stdout.Write(obj.Payload)
	return err
}

func cmdStat(ctx context.Context, clients []*client.Client, addrs []string) error {
	for i, c := range clients {
		st, err := c.StatCtx(ctx)
		if err != nil {
			return fmt.Errorf("node %s: %w", addrs[i], err)
		}
		fmt.Printf("%s: %d/%d bytes used, %d objects, density %.4f\n",
			addrs[i], st.Used, st.Capacity, st.Objects, st.Density)
		if len(st.Shards) > 1 {
			for si, sh := range st.Shards {
				fmt.Printf("  shard %d: %d/%d bytes used, %d objects, density %.4f, boundary %.3f\n",
					si, sh.Used, sh.Capacity, sh.Objects, sh.Density, sh.Boundary)
			}
		}
	}
	return nil
}

func cmdProbe(ctx context.Context, clients []*client.Client, addrs, args []string, impSpec string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: probe <size-bytes>")
	}
	size, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return fmt.Errorf("bad size %q: %w", args[0], err)
	}
	imp, err := importance.ParseSpec(impSpec)
	if err != nil {
		return err
	}
	for i, c := range clients {
		admissible, boundary, err := c.ProbeCtx(ctx, size, imp)
		if err != nil {
			return fmt.Errorf("node %s: %w", addrs[i], err)
		}
		fmt.Printf("%s: admissible=%t highest-importance-preempted=%.3f\n",
			addrs[i], admissible, boundary)
	}
	return nil
}

func cmdDensity(ctx context.Context, clients []*client.Client, addrs []string) error {
	for i, c := range clients {
		d, err := c.DensityCtx(ctx)
		if err != nil {
			return fmt.Errorf("node %s: %w", addrs[i], err)
		}
		fmt.Printf("%s: %.4f\n", addrs[i], d)
		history, err := c.DensityHistoryCtx(ctx)
		if err != nil {
			// Older nodes do not speak DENSITY_HISTORY; the instantaneous
			// density above is all they offer.
			fmt.Fprintf(os.Stderr, "  (no density history: %v)\n", err)
			continue
		}
		for _, s := range history {
			fmt.Printf("  t=%-14s density=%.4f used=%d boundary=%.3f\n",
				s.At, s.Density, s.Used, s.Boundary)
		}
	}
	return nil
}

func cmdMembers(ctx context.Context, clients []*client.Client, addrs []string) error {
	for i, c := range clients {
		members, err := c.MembersCtx(ctx)
		if err != nil {
			return fmt.Errorf("node %s: %w", addrs[i], err)
		}
		fmt.Printf("%s: %d member(s)\n", addrs[i], len(members))
		for _, m := range members {
			health := "alive"
			if !m.Alive {
				health = "dead"
			}
			device := "-"
			if m.Device != "" {
				device = secure.DeviceID(m.Device).Short()
			}
			fmt.Printf("  %-21s %-5s boundary=%.3f free=%d density=%.4f incarnation=%d version=%d device=%s cfgv=%d\n",
				m.Addr, health, m.Boundary, m.Free, m.Density, m.Incarnation, m.Version, device, m.ConfigVersion)
		}
	}
	return nil
}

func cmdRepairStatus(ctx context.Context, clients []*client.Client, addrs []string) error {
	for i, c := range clients {
		st, err := c.RepairStatusCtx(ctx)
		if err != nil {
			return fmt.Errorf("node %s: %w", addrs[i], err)
		}
		fmt.Printf("%s: replicas=%d threshold=%.3f\n", addrs[i], st.Replicas, st.Threshold)
		fmt.Printf("  pushed=%d push-failures=%d pulled=%d bytes-repaired=%d\n",
			st.Pushed, st.PushFailures, st.Pulled, st.BytesRepaired)
		fmt.Printf("  passes=%d under-replicated=%d pending=%d last-pass=%s\n",
			st.Passes, st.UnderReplicated, st.Pending, time.Duration(st.LastPassNanos).Round(time.Millisecond))
	}
	return nil
}

func cmdList(ctx context.Context, clients []*client.Client, addrs []string) error {
	for i, c := range clients {
		ids, err := c.ListCtx(ctx)
		if err != nil {
			return fmt.Errorf("node %s: %w", addrs[i], err)
		}
		fmt.Printf("%s: %d object(s)\n", addrs[i], len(ids))
		for _, id := range ids {
			fmt.Printf("  %s\n", id)
		}
	}
	return nil
}
