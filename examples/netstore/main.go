// Netstore: a live Besteffs deployment over TCP, in one process.
//
// The example starts three storage nodes on loopback listeners and joins
// them into one cluster with the gossip membership protocol: every node
// runs a MemberAgent that advertises its address, importance boundary and
// free capacity to its peers. The client then discovers the whole cluster
// from a single seed address (DialClusterSeed) -- it never sees the other
// two addresses -- and stores objects with the paper's placement algorithm
// running over real sockets: probe sampled nodes for the highest
// importance a put would preempt, store on the node with the lowest
// boundary. It then demonstrates preemption across the wire and reads the
// density feedback from every node.
//
// Run with:
//
//	go run ./examples/netstore
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	"besteffs"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const nodeCapacity = 10 << 20 // 10 MB per node

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Start three nodes. Each runs a membership agent next to its storage
	// server; nodes 1 and 2 join through node 0's address, then gossip
	// spreads the full table everywhere.
	var seed string
	for i := 0; i < 3; i++ {
		srv, err := besteffs.NewServer(besteffs.EngineConfig{Capacity: nodeCapacity, Policy: besteffs.TemporalImportance{}})
		if err != nil {
			return err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addr := l.Addr().String()
		var seeds []string
		if seed == "" {
			seed = addr
		} else {
			seeds = []string{seed}
		}
		agent, err := besteffs.NewMemberAgent(besteffs.MemberConfig{
			Addr: addr,
			Self: func() (float64, int64, float64) {
				sm := srv.Engine().SampleAt(srv.Now())
				return sm.Boundary, srv.Engine().Free(), sm.Density
			},
			Seeds:    seeds,
			Interval: 100 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		srv.SetMembership(agent)
		go agent.Run(ctx)
		go func() {
			if err := srv.Serve(ctx, l); err != nil {
				log.Printf("node: %v", err)
			}
		}()
		fmt.Printf("node %d listening on %s (%d MB, temporal-importance policy)\n",
			i, addr, nodeCapacity>>20)
	}

	// Give the heartbeats a few rounds to spread all three advertisements,
	// then discover the cluster from the single seed address.
	time.Sleep(500 * time.Millisecond)
	cc, err := besteffs.DialClusterSeed(ctx, seed, 2*time.Second, rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}
	defer cc.Close()
	fmt.Printf("\ndiscovered the cluster from seed %s\n", seed)

	// Store a batch of annotated objects across the cluster.
	lifetime, err := besteffs.NewTwoStep(0.6, time.Hour, time.Hour)
	if err != nil {
		return err
	}
	fmt.Println("\nstoring 15 x 2MB objects at importance 0.6 (fills all three nodes):")
	batch := make([]besteffs.PutRequest, 15)
	for i := range batch {
		batch[i] = besteffs.PutRequest{
			ID:         besteffs.ObjectID(fmt.Sprintf("video/%02d", i)),
			Owner:      "camera-1",
			Class:      besteffs.ClassUniversity,
			Importance: lifetime,
			Payload:    make([]byte, 2<<20),
		}
	}
	// One PutBatch call spreads the batch across the cluster by probe
	// boundary and ships each node's chunk as a single BATCH frame.
	outcomes, err := cc.PutBatch(ctx, batch)
	if err != nil {
		return err
	}
	for i, o := range outcomes {
		if o.Err != nil {
			return fmt.Errorf("video/%02d: %w", i, o.Err)
		}
		fmt.Printf("  video/%02d -> node %d (boundary %.2f, %d eviction(s))\n",
			i, o.Node, o.Result.Boundary, len(o.Result.Evicted))
	}

	// The cluster is nearly full of 0.6-importance objects. A critical
	// object preempts; a low-importance one is turned away.
	fmt.Println("\ncritical object at importance 1.0:")
	p, err := cc.PutCtx(ctx, besteffs.PutRequest{
		ID:         "critical/backup",
		Importance: besteffs.Constant{Level: 1},
		Payload:    make([]byte, 2<<20),
	})
	if err != nil {
		return err
	}
	fmt.Printf("  stored on node %d, preempting %v\n", p.Node, p.Evicted)

	fmt.Println("\nunimportant object at importance 0.2:")
	if _, err := cc.PutCtx(ctx, besteffs.PutRequest{
		ID:         "junk/cache",
		Importance: besteffs.Constant{Level: 0.2},
		Payload:    make([]byte, 2<<20),
	}); err != nil {
		fmt.Printf("  rejected as expected: %v\n", err)
	} else {
		fmt.Println("  unexpectedly admitted (cluster still had free space)")
	}

	// Density feedback per node.
	avg, err := cc.AverageDensityCtx(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("\ncluster average storage importance density: %.3f\n", avg)

	// Read one object back and show its server-evaluated importance.
	got, err := cc.GetCtx(ctx, "critical/backup")
	if err != nil {
		return err
	}
	fmt.Printf("critical/backup: %d bytes, age %s, current importance %.2f\n",
		len(got.Payload), got.Age.Round(time.Millisecond), got.CurrentImportance)
	return nil
}
