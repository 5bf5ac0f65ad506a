package repair_test

// End-to-end proof of the distributed tracing layer: a single trace ID
// minted at the client covers an object's whole cluster life -- the put,
// the synchronous replication push it fans out, and the anti-entropy pull
// that later heals a deleted replica -- reassembled from the members'
// TRACE_DUMP rings exactly the way `besteffsctl trace` does it.

import (
	"context"
	"testing"
	"time"

	"besteffs/internal/client"
	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/telemetry"
)

// dumpTrace fans a TRACE_DUMP out to every node and returns the union of
// their rings for one trace, converted back to telemetry spans.
func dumpTrace(t *testing.T, ctx context.Context, nodes []*chaosNode, trace string) []telemetry.Span {
	t.Helper()
	var spans []telemetry.Span
	for _, n := range nodes {
		c, err := client.Connect(n.addr, client.WithTimeout(time.Second))
		if err != nil {
			continue
		}
		res, err := c.TraceDumpCtx(ctx, trace)
		c.Close()
		if err != nil {
			t.Fatalf("trace dump on %s: %v", n.addr, err)
		}
		for _, s := range res.Spans {
			spans = append(spans, telemetry.Span{
				Trace:    s.Trace,
				ID:       s.ID,
				Parent:   s.Parent,
				Name:     s.Name,
				Node:     s.Node,
				Peer:     s.Peer,
				Start:    time.Unix(0, s.StartUnixNanos),
				Duration: time.Duration(s.DurationNanos),
				Note:     s.Note,
			})
		}
	}
	return spans
}

func TestTraceCoversPutReplicationAndRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node chaos test")
	}
	bg := context.Background()
	nodes := startCluster(t, nil)

	// Everything below runs under one client-minted root trace.
	sc := telemetry.NewRoot()
	ctx := telemetry.NewContext(bg, sc)

	// Put a high-importance object on node 0; ingest replication pushes the
	// second copy to a peer before the ack, as a child hop of the put.
	id := object.ID("vital/traced")
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
	h := holders(t, bg, nodes, id)
	if len(h) != 2 {
		t.Fatalf("ingest left %d holders %v, want 2", len(h), h)
	}

	// Delete the replica copy; the deficit makes the next anti-entropy
	// round pull it back. The passes run under the same trace, so the
	// repair hops (INDEX_DIFF exchanges, the GET that fetches the payload)
	// join the put's tree.
	var peerHolder *chaosNode
	for _, n := range nodes {
		if n.addr != nodes[0].addr && (n.addr == h[0] || n.addr == h[1]) {
			peerHolder = n
		}
	}
	if peerHolder == nil {
		t.Fatal("replica landed nowhere")
	}
	ch, err := client.Connect(peerHolder.addr, client.WithTimeout(time.Second))
	if err != nil {
		t.Fatalf("dial holder: %v", err)
	}
	if err := ch.DeleteCtx(bg, id); err != nil {
		t.Fatalf("delete replica: %v", err)
	}
	ch.Close()

	var pullers []*chaosNode
	deadline := time.Now().Add(15 * time.Second)
	for len(pullers) == 0 && time.Now().Before(deadline) {
		for _, n := range nodes {
			pass, err := n.mgr.PassNow(ctx)
			if err != nil {
				t.Fatalf("repair pass on %s: %v", n.addr, err)
			}
			if pass.Pulled > 0 {
				pullers = append(pullers, n)
			}
		}
	}
	if len(pullers) == 0 {
		t.Fatal("anti-entropy never pulled the deleted replica back")
	}

	// Reassemble the trace from every node's ring, the way besteffsctl
	// trace does, and check the cross-node story is all there.
	spans := dumpTrace(t, bg, nodes, sc.Trace)
	names := make(map[string]int)
	nodesSeen := make(map[string]bool)
	for _, sp := range spans {
		if sp.Trace != sc.Trace {
			t.Fatalf("span %q carries trace %q, want %q", sp.Name, sp.Trace, sc.Trace)
		}
		names[sp.Name]++
		nodesSeen[sp.Node] = true
	}
	for _, want := range []string{"put", "replicate", "index_delta", "get"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q span (got %v)", want, names)
		}
	}
	if len(nodesSeen) < 2 {
		t.Errorf("trace covers %d node(s) %v, want hops on at least 2", len(nodesSeen), nodesSeen)
	}

	roots := telemetry.Assemble(spans)
	if got := telemetry.CountSpans(roots); got < 3 {
		t.Fatalf("assembled tree has %d spans, want >= 3", got)
	}
	// The replication push must hang off the put: the server threads the
	// put's span context into its outbound REPLICATE, so the peer's span
	// names the put as parent.
	foundChildPush := false
	for _, r := range roots {
		if r.Span.Name != "put" {
			continue
		}
		for _, c := range r.Children {
			if c.Span.Name == "replicate" {
				foundChildPush = true
			}
		}
	}
	if !foundChildPush {
		t.Error("no replicate span parented under the put span")
	}

	// The flight recorder saw the same story: a push on the origin, a pull
	// on every node whose pass pulled, both stamped with the trace.
	wantEvent := func(n *chaosNode, kind telemetry.EventKind) bool {
		for _, e := range n.srv.Events().Snapshot() {
			if e.Kind == kind && e.ID == string(id) && e.Trace == sc.Trace {
				return true
			}
		}
		return false
	}
	if !wantEvent(nodes[0], telemetry.EventReplicaPush) {
		t.Error("origin node recorded no replica-push event with the trace ID")
	}
	for _, n := range pullers {
		if !wantEvent(n, telemetry.EventReplicaPull) {
			t.Errorf("%s pulled the object but recorded no replica-pull event with the trace ID", n.addr)
		}
	}
	// EVENTS over the wire serves the same records besteffsctl events reads.
	c, err := client.Connect(nodes[0].addr, client.WithTimeout(time.Second))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	evres, err := c.EventsCtx(bg, 0)
	c.Close()
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	gotPush := false
	for _, e := range evres.Events {
		if telemetry.EventKind(e.Kind) == telemetry.EventReplicaPush && e.Trace == sc.Trace {
			gotPush = true
		}
	}
	if !gotPush {
		t.Error("EVENTS dump on the origin is missing the traced replica push")
	}
}
