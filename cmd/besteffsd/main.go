// Command besteffsd runs one live Besteffs storage node: a TCP server that
// stores objects annotated with temporal importance functions and reclaims
// space with the paper's preemption policy. It is the building block of a
// fully distributed deployment -- start one daemon per machine and point
// besteffsctl (or client.ClusterClient) at the set.
//
// Usage:
//
//	besteffsd [-addr HOST:PORT] [-capacity BYTES] [-shards N] [-policy NAME] [-data DIR]
//	          [-sweep DUR] [-status HOST:PORT] [-pprof] [-sample DUR]
//	          [-sample-window N] [-max-conns N] [-max-batch N] [-req-timeout DUR]
//	          [-drain DUR] [-join ADDRS] [-replicas N] [-repl-threshold F]
//	          [-repair-interval DUR] [-gossip-interval DUR] [-advertise HOST:PORT]
//	          [-slow-threshold DUR] [-tls] [-tls-dir DIR] [-tls-peers IDS]
//	          [-config-version N]
//
// Cluster mode starts with -join (gossip with existing members at ADDRS,
// comma-separated) or -replicas. Every clustered node runs the membership
// heartbeat -- advertising its address, importance boundary and free
// capacity -- and answers MEMBERS, so clients can discover the whole
// cluster from any one node. With -replicas N > 1, an admitted object whose
// initial importance reaches -repl-threshold is pushed to N-1 peers before
// the put is acknowledged, and an anti-entropy loop re-replicates
// under-replicated or divergent objects every -repair-interval. Use
// -advertise when the listen address is not reachable by peers (e.g.
// -addr :7459 behind NAT).
//
// With -tls, every connection -- gossip, replication, repair and clients --
// runs over TLS with mutual authentication. The node mints a self-signed
// certificate under -tls-dir (default DIR/tls under -data) at first boot and
// logs its device ID, the hash of the certificate's public key. -tls-peers
// pins the device IDs admitted to this node (comma-separated; empty admits
// any authenticated device). Cleartext remains the explicit default for
// closed networks; a cleartext client dialing a TLS node fails during the
// handshake, before any request is read.
//
// Clustered nodes also gossip a versioned cluster config (replication
// factor, threshold, loop intervals). A bootstrap node (no -join) publishes
// its flags as config version 1 (override with -config-version); joining
// nodes start at version 0 and adopt the cluster's config, and a node whose
// equal-version config conflicts is rejected at gossip time with a
// config-mismatch error, recorded on both sides' flight recorders.
//
// With -status, the address serves the JSON status snapshot at /, the
// Prometheus text exposition at /metrics, and -- with -pprof -- the standard
// net/http/pprof profiling endpoints under /debug/pprof/. The -sample
// interval records the node's density trajectory into a ring of
// -sample-window samples, visible in status JSON, /metrics and
// "besteffsctl density".
//
// With -shards N > 1, the capacity is partitioned over N in-process shards,
// each with its own lock, so concurrent puts on a multi-core box contend on
// N locks instead of one. Shard routing hashes the object ID, so the same
// key lands on the same shard across restarts. Checkpoints cut all shards at
// one instant.
//
// With -data, payload bytes are kept in an append-only segment log under
// DIR/blobs (budget: twice the capacity plus 12 MiB of disk) and a segmented
// metadata write-ahead log grows under DIR/wal (rotating at -wal-segment
// bytes) -- one of each per node, whatever -shards says. On startup the node
// loads its newest checkpoint, replays only the segments written after it,
// routing every object to its home shard, truncates any torn tail a crash
// left behind (other damage, or a missing segment, stops it with a pointer
// to besteffsctl fsck), and reconciles metadata against the payload log. A
// restart may change -shards: it boots if each shard can hold what the
// history routes to it (after a clean stop, the final resident set), and
// otherwise exits naming the shard, changing nothing on disk. A DIR holding
// an older build's layout (shard-NNN/, journal.log, reshard.tmp) is refused
// before anything is opened. The -checkpoint interval bounds recovery time
// and WAL disk usage; a final checkpoint is also written at clean shutdown.
// The -scrub-interval loop re-verifies payload CRCs in the background and
// quarantines corrupt objects instead of ever serving them. If startup fails
// with a corruption error, inspect the damage with "besteffsctl fsck DIR".
//
// Policies: temporal (default), fifo, traditional, fair-share (per-owner
// quotas; tune with -share).
//
// Every request runs under a distributed trace (see besteffsctl trace), and
// a bounded flight recorder keeps the node's recent decisions -- admissions,
// evictions, boundary moves, replica traffic, membership transitions.
// SIGQUIT dumps the recorder to stderr without stopping the node; with
// -slow-threshold, any request at least that slow logs its span tree at
// WARN.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: it stops accepting,
// lets in-flight requests finish for up to -drain, then syncs and closes the
// journal so the shutdown never tears the record a client was just
// acknowledged for, and closes the payload log's segments.
package main

import (
	"context"
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	nhpprof "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/client"
	"besteffs/internal/journal"
	"besteffs/internal/loop"
	"besteffs/internal/member"
	"besteffs/internal/policy"
	"besteffs/internal/repair"
	"besteffs/internal/secure"
	"besteffs/internal/server"
	"besteffs/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "besteffsd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("besteffsd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7459", "listen address")
	capacity := fs.Int64("capacity", 1<<30, "storage capacity in bytes")
	shards := fs.Int("shards", 1, "in-process shards splitting the capacity (1 = unsharded)")
	policyName := fs.String("policy", "temporal", "admission policy: temporal, fifo, traditional or fair-share")
	share := fs.Float64("share", 0.5, "per-owner capacity fraction for -policy fair-share")
	dataDir := fs.String("data", "", "directory for on-disk payloads (default: in-memory)")
	sweep := fs.Duration("sweep", 0, "reclaim expired objects every interval (0 disables)")
	statusAddr := fs.String("status", "", "serve status JSON and /metrics on this address (optional)")
	pprof := fs.Bool("pprof", false, "expose /debug/pprof/ on the -status address")
	sample := fs.Duration("sample", 10*time.Second, "record a density sample every interval (0 disables)")
	sampleWindow := fs.Int("sample-window", 360, "density samples kept in the ring")
	maxConns := fs.Int("max-conns", 0, "cap on concurrent client connections (0 = unlimited)")
	reqTimeout := fs.Duration("req-timeout", time.Minute, "per-connection idle/write deadline (0 disables)")
	drain := fs.Duration("drain", 5*time.Second, "grace period for in-flight requests at shutdown (0 = close immediately)")
	checkpoint := fs.Duration("checkpoint", 10*time.Minute, "checkpoint live state and truncate the WAL every interval (0 disables; needs -data)")
	walSegment := fs.Int64("wal-segment", journal.DefaultSegmentBytes, "WAL segment rotation size in bytes")
	scrubInterval := fs.Duration("scrub-interval", 0, "verify payload CRCs and quarantine corrupt objects every interval (0 disables)")
	maxBatch := fs.Int("max-batch", 0, "cap on sub-requests per BATCH frame and per coalesced put group (0 = protocol limit)")
	join := fs.String("join", "", "comma-separated addresses of existing cluster members to gossip with (enables cluster mode)")
	replicas := fs.Int("replicas", 0, "replication factor for objects above -repl-threshold (0 disables; >1 enables the repair loop)")
	replThreshold := fs.Float64("repl-threshold", 0.5, "initial importance at or above which objects replicate")
	repairInterval := fs.Duration("repair-interval", 5*time.Second, "anti-entropy repair pass period")
	gossipInterval := fs.Duration("gossip-interval", 500*time.Millisecond, "membership heartbeat period")
	advertise := fs.String("advertise", "", "address peers reach this node at (default: the listen address)")
	slowThreshold := fs.Duration("slow-threshold", 0, "log any request taking at least this long at WARN, with its span tree (0 disables)")
	tlsOn := fs.Bool("tls", false, "serve and dial over TLS with mutual authentication")
	tlsDir := fs.String("tls-dir", "", "directory for the node certificate and key (default: DIR/tls under -data)")
	tlsPeers := fs.String("tls-peers", "", "comma-separated device IDs admitted to this node (empty: any authenticated device)")
	configVersion := fs.Uint64("config-version", 0, "cluster config version this node publishes (0: 1 when bootstrapping, adopt when joining)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *slowThreshold < 0 {
		return fmt.Errorf("-slow-threshold %v is negative", *slowThreshold)
	}
	if *walSegment <= 0 {
		return fmt.Errorf("-wal-segment %d is not positive", *walSegment)
	}
	if *shards < 1 {
		return fmt.Errorf("-shards %d is not positive", *shards)
	}
	if *maxConns < 0 {
		return fmt.Errorf("-max-conns %d is negative", *maxConns)
	}
	if *maxBatch < 0 {
		return fmt.Errorf("-max-batch %d is negative", *maxBatch)
	}
	if *pprof && *statusAddr == "" {
		return errors.New("-pprof needs -status (profiling shares the status listener)")
	}
	if *sample > 0 && *sampleWindow < 1 {
		return fmt.Errorf("-sample-window %d is not positive", *sampleWindow)
	}
	if *replicas < 0 {
		return fmt.Errorf("-replicas %d is negative", *replicas)
	}
	if *replThreshold < 0 || *replThreshold > 1 {
		return fmt.Errorf("-repl-threshold %v outside [0, 1]", *replThreshold)
	}
	if !*tlsOn && (*tlsDir != "" || *tlsPeers != "") {
		return errors.New("-tls-dir and -tls-peers need -tls")
	}
	if *tlsOn && *tlsDir == "" && *dataDir == "" {
		return errors.New("-tls needs -tls-dir (or -data to default under)")
	}

	pol, err := policy.ByName(*policyName, *share)
	if err != nil {
		return err
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	opts := []server.Option{server.WithLogger(log)}
	if *maxConns > 0 {
		opts = append(opts, server.WithConnLimit(*maxConns))
	}
	if *maxBatch > 0 {
		opts = append(opts, server.WithMaxBatchSubs(*maxBatch))
	}
	if *reqTimeout > 0 {
		opts = append(opts, server.WithReqTimeout(*reqTimeout))
	}
	if *drain > 0 {
		opts = append(opts, server.WithDrainTimeout(*drain))
	}
	if *sample > 0 {
		opts = append(opts, server.WithDensityWindow(*sampleWindow))
	}
	if *slowThreshold > 0 {
		opts = append(opts, server.WithSlowThreshold(*slowThreshold))
	}
	// Spans record the advertised address so cross-node trace trees name
	// nodes the way peers and operators reach them.
	nodeAddr := *advertise
	if nodeAddr == "" {
		nodeAddr = *addr
	}
	opts = append(opts, server.WithNodeAddr(nodeAddr))
	var wal *journal.WAL
	var files *blob.FileStore
	if *dataDir != "" {
		// The WAL opens first: a data dir holding an older layout is refused
		// before anything, the blob directory included, is created.
		var err error
		wal, err = server.OpenWAL(*dataDir, journal.WithSegmentBytes(*walSegment))
		if err != nil {
			if errors.Is(err, journal.ErrCorrupt) {
				return fmt.Errorf("%w\nrun \"besteffsctl fsck %s\" to inspect the damage", err, *dataDir)
			}
			return err
		}
		// Safety net for early-exit paths; the normal path closes
		// explicitly after Serve drains (Close is idempotent).
		defer func() {
			if err := wal.Close(); err != nil {
				log.Error("close wal", "err", err)
			}
		}()
		files, err = blob.NewFileStore(filepath.Join(*dataDir, server.BlobDirName))
		if err != nil {
			return err
		}
		opts = append(opts, server.WithBlobStore(files), server.WithWAL(wal))
		log.Info("persistent node", server.BlobDirName, files.Root(), server.WALDirName, wal.Dir(), "shards", *shards)
	}
	srv, err := server.New(server.EngineConfig{
		Capacity: *capacity, Policy: pol, Shards: *shards,
	}, opts...)
	if err != nil {
		return err
	}
	if *dataDir != "" {
		stats, err := srv.RestoreDir(*dataDir)
		if err != nil {
			if errors.Is(err, journal.ErrCorrupt) {
				return fmt.Errorf("%w\nrun \"besteffsctl fsck %s\" to inspect the damage", err, *dataDir)
			}
			return err
		}
		log.Info("restored",
			"records", stats.Records, "residents", stats.Residents,
			"resume", stats.Resume, "checkpoint_seq", stats.CheckpointSeq,
			"checkpoint_objects", stats.CheckpointObjects,
			"checkpoints_skipped", stats.CheckpointsSkipped,
			"segments_replayed", stats.SegmentsReplayed,
			"torn_tail_bytes", stats.TornTailBytes,
			"dropped_no_payload", stats.DroppedNoPayload,
			"dropped_orphan_blobs", stats.DroppedOrphanBlobs)
	}
	// Transport security: one certificate identity shared by the accept
	// side and every outbound path (gossip, repair pulls, replica pushes).
	var (
		tlsServerCfg *tls.Config
		tlsClientCfg *tls.Config
		device       secure.DeviceID
	)
	if *tlsOn {
		dir := *tlsDir
		if dir == "" {
			dir = filepath.Join(*dataDir, "tls")
		}
		cert, err := secure.LoadOrCreate(dir)
		if err != nil {
			return err
		}
		device, err = secure.IDFromTLSCert(cert)
		if err != nil {
			return err
		}
		var allow *secure.Allowlist
		if *tlsPeers != "" {
			var ids []secure.DeviceID
			for _, id := range strings.Split(*tlsPeers, ",") {
				if id = strings.TrimSpace(id); id != "" {
					ids = append(ids, secure.DeviceID(id))
				}
			}
			allow = secure.NewAllowlist(ids...)
		}
		tlsServerCfg = secure.ServerConfig(cert, allow)
		tlsClientCfg = secure.ClientConfig(cert, allow)
		log.Info("tls enabled", "device", device.Short(), "dir", dir,
			"pinned_peers", allow.Len())
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen on %s: %w", *addr, err)
	}
	if tlsServerCfg != nil {
		l = tls.NewListener(l, tlsServerCfg)
	}
	log.Info("besteffsd listening",
		"addr", l.Addr().String(), "capacity", *capacity, "policy", pol.Name(),
		"tls", *tlsOn)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// SIGQUIT dumps the flight recorder to stderr and keeps serving: the
	// black box is most wanted exactly when the node is misbehaving, so the
	// dump must not require stopping it.
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	defer signal.Stop(quitc)
	go func() {
		for range quitc {
			fmt.Fprintf(os.Stderr, "=== flight recorder (SIGQUIT, %d events) ===\n",
				srv.Events().Len())
			srv.Events().Dump(os.Stderr)
			fmt.Fprintln(os.Stderr, "=== end flight recorder ===")
		}
	}()

	// The node's background steps, each at the period its flag gives.
	bg := background{
		sweep:  loop.Task{Every: *sweep, Step: func(context.Context) { srv.SweepNow() }},
		sample: loop.Task{Every: *sample, Step: func(context.Context) { srv.SampleNow() }},
		scrub: loop.Task{Every: *scrubInterval, Step: func(ctx context.Context) {
			if _, err := srv.ScrubNow(ctx); err != nil && ctx.Err() == nil {
				log.Error("scrub pass", "err", err)
			}
		}},
	}
	if wal != nil {
		bg.checkpoint = loop.Task{Every: *checkpoint, Step: func(context.Context) {
			stats, err := srv.Checkpoint()
			if err != nil {
				log.Error("checkpoint", "err", err)
				return
			}
			log.Info("checkpoint written", "seq", stats.Seq, "objects", stats.Objects,
				"segments_removed", stats.SegmentsRemoved, "took", stats.Took)
		}}
	}

	// Cluster mode: a membership agent gossiping this node's advertisement,
	// plus -- with -replicas > 1 -- the repair manager.
	var mgr *repair.Manager
	if *join != "" || *replicas > 0 {
		selfAddr := *advertise
		if selfAddr == "" {
			selfAddr = l.Addr().String()
		}
		var seeds []string
		for _, seed := range strings.Split(*join, ",") {
			seed = strings.TrimSpace(seed)
			if seed != "" && seed != selfAddr {
				seeds = append(seeds, seed)
			}
		}
		// A bootstrap node (no seeds) publishes its flags as the cluster
		// config; joiners start at version 0 and adopt whatever the
		// cluster gossips back. The policy fields always reflect this
		// node's flags, so adopting a conflicting config is detectable.
		ver := *configVersion
		if ver == 0 && len(seeds) == 0 {
			ver = 1
		}
		mcfg := member.Config{
			Addr: selfAddr,
			Self: func() (float64, int64, float64) {
				// The advertisement is the engine's merged view: boundary is
				// the cheapest shard's, free and density span all shards.
				sm := srv.Engine().SampleAt(srv.Now())
				return sm.Boundary, srv.Engine().Free(), sm.Density
			},
			Seeds:    seeds,
			Interval: *gossipInterval,
			Logger:   log,
			Registry: srv.Metrics(),
			Events:   srv.Events(),
			Device:   string(device),
			Cluster: wire.ClusterConfig{
				Version:             ver,
				Origin:              selfAddr,
				Replicas:            uint32(*replicas),
				Threshold:           *replThreshold,
				GossipIntervalNanos: int64(*gossipInterval),
				RepairIntervalNanos: int64(*repairInterval),
			},
		}
		if tlsClientCfg != nil {
			mcfg.Dial = secure.Dialer(tlsClientCfg, 2*time.Second)
		}
		agent, err := member.NewAgent(mcfg)
		if err != nil {
			return err
		}
		srv.SetMembership(agent)
		if *replicas > 1 {
			rcfg := repair.Config{
				Replicas:  *replicas,
				Threshold: *replThreshold,
				SelfAddr:  selfAddr,
				Local:     srv,
				Peers:     agent,
				Logger:    log,
				Registry:  srv.Metrics(),
				Events:    srv.Events(),
				Cluster:   agent,
			}
			if tlsClientCfg != nil {
				rcfg.Connect = func(addr string) (*client.Client, error) {
					return client.Connect(addr, client.WithTimeout(2*time.Second), client.WithTLS(tlsClientCfg))
				}
			}
			mgr, err = repair.NewManager(rcfg)
			if err != nil {
				return err
			}
			srv.SetRepair(mgr)
			bg.repair = loop.Task{Every: *repairInterval, Step: func(ctx context.Context) {
				// A pass fails only once ctx is cancelled, and logs its own pulls.
				_, _ = mgr.PassNow(ctx)
			}}
		}
		bg.gossip = loop.Task{Every: *gossipInterval, Step: agent.Tick}
		log.Info("cluster mode", "advertise", selfAddr, "seeds", seeds,
			"replicas", *replicas, "repl_threshold", *replThreshold)
	}
	if *statusAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/", srv.StatusHandler())
		mux.Handle("/metrics", srv.MetricsHandler())
		if *pprof {
			mux.HandleFunc("/debug/pprof/", nhpprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", nhpprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", nhpprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", nhpprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", nhpprof.Trace)
		}
		statusSrv := &http.Server{Addr: *statusAddr, Handler: mux}
		go func() {
			<-ctx.Done()
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := statusSrv.Shutdown(shutdownCtx); err != nil {
				log.Error("status shutdown", "err", err)
			}
		}()
		go func() {
			log.Info("status endpoint", "addr", *statusAddr)
			if err := statusSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("status endpoint", "err", err)
			}
		}()
	}
	loopCtx, stopLoops := context.WithCancel(ctx)
	loopsDone := make(chan struct{})
	go func() {
		defer close(loopsDone)
		loop.Run(loopCtx, bg.tasks()...)
	}()
	serveErr := srv.Serve(ctx, l)
	// Stop the background steps, and wait for the ones in flight, before
	// touching the WAL below: sweeps, checkpoints and repair pulls append
	// journal records.
	stopLoops()
	<-loopsDone
	if serveErr != nil {
		return serveErr
	}
	if mgr != nil {
		if err := mgr.Close(); err != nil {
			log.Error("close repair connections", "err", err)
		}
	}
	// Serve has returned, so every handler -- and thus every journal
	// append -- is done. Checkpoint the final state (making the next boot
	// replay-free), then sync and close the WAL while we can still report
	// failures, instead of relying on the deferred Close.
	if wal != nil {
		if *checkpoint > 0 {
			if cp, err := srv.Checkpoint(); err != nil {
				log.Error("final checkpoint", "err", err)
			} else {
				log.Info("final checkpoint", "seq", cp.Seq, "objects", cp.Objects)
			}
		}
		if err := wal.Sync(); err != nil {
			log.Error("sync wal", "err", err)
		}
		if err := wal.Close(); err != nil {
			log.Error("close wal", "err", err)
		}
		if err := files.Close(); err != nil {
			log.Error("close payload log", "err", err)
		}
	}
	log.Info("besteffsd stopped")
	return nil
}

// background is the daemon's one table of background loops: the expiry
// sweep, the density sample, the checkpoint, the scrub, the gossip tick and
// the repair pass, each at its flag's period. A period of 0, or a step the
// node does not run (no -data, no cluster), leaves it off.
type background struct {
	sweep, sample, checkpoint, scrub, gossip, repair loop.Task
}

// tasks lists the table for loop.Run. The density sample and the gossip tick
// also run once at start, so a fresh node has a point to show and announces
// itself at once. Sweep, checkpoint, scrub and repair wait one period; a
// checkpoint at start would only lengthen the boot.
func (b background) tasks() []loop.Task {
	b.sample.AtStart, b.gossip.AtStart = true, true
	return []loop.Task{b.sweep, b.sample, b.checkpoint, b.scrub, b.gossip, b.repair}
}
