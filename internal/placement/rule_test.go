package placement_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"testing"

	"besteffs/internal/client"
	"besteffs/internal/cluster"
	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/wire"
)

// The Section 5.3 placement rule as one table, run against Walk through both
// of its adapters: the simulated cluster (cluster.Place over in-memory
// units) and the live one (client.ClusterClient.PutCtx over sockets). A case
// scripts what the k-th distinct unit the walk probes answers, whichever
// unit that turns out to be, so the same rows hold for the overlay's random
// walks and the client's random sample.
//
// The arrival always has importance 0.5: a unit answering a boundary below
// that admits, one answering 0.5 or more refuses.

const arrivalLevel = 0.5

// scripted is one unit's behaviour.
type scripted struct {
	// boundary is the probe answer; the unit admits when it is below
	// arrivalLevel and has free space when it is zero.
	boundary float64

	// Live cluster only: the ways a real node departs from its probe.
	probeFails    bool // drops the connection instead of answering the probe
	probeVerdict  bool // answers the probe with a remote error
	refusesPut    bool // admits the probe, refuses the put that follows
	putIsVerdict  bool // answers the put with a duplicate-ID error
	neverProbed   bool // the case fails if the walk reaches this unit
	neverReceives bool // the case fails if this unit sees a put
}

func (s scripted) admits() bool { return s.boundary < arrivalLevel }

type ruleCase struct {
	name string
	// n units, x sampled per round, m rounds.
	n, x, m int
	// script[k] is the k-th distinct unit probed; rest is every later one.
	script []scripted
	rest   scripted
	// want is the probe-order position of the unit that must store the
	// object, or -1 when the cluster must refuse it.
	want int
	// wantBoundary is the boundary reported with the placement; on a
	// refusal, the lowest boundary any refusing unit answered.
	wantBoundary float64
	// wantErr is the error the live cluster must return (nil = success).
	wantErr error
	// liveOnly marks cases the single-threaded, always-reachable simulation
	// cannot express.
	liveOnly bool
}

func (c ruleCase) unit(k int) scripted {
	if k >= 0 && k < len(c.script) {
		return c.script[k]
	}
	return c.rest
}

var ruleCases = []ruleCase{
	{
		name: "all free: first probed unit stores at once",
		n:    8, x: 3, m: 3,
		rest: scripted{boundary: 0},
		want: 0, wantBoundary: 0,
	},
	{
		name: "boundary zero in a later round ends the walk there",
		n:    12, x: 2, m: 3,
		script: []scripted{
			{boundary: 0.3},
			{boundary: 0.8},
			{boundary: 0},
			{boundary: 0, neverProbed: true},
		},
		rest: scripted{boundary: 0, neverProbed: true},
		want: 2, wantBoundary: 0,
	},
	{
		name: "all refuse: rejected with the lowest refusing boundary",
		n:    6, x: 6, m: 2,
		script: []scripted{
			{boundary: 0.9},
			{boundary: 0.6},
			{boundary: 0.7},
		},
		rest: scripted{boundary: 1},
		want: -1, wantBoundary: 0.6, wantErr: client.ErrClusterFull,
	},
	{
		// x = n: every round samples every unit, so rounds two and three
		// only revisit; each unit must still be probed exactly once.
		name: "lowest boundary wins; revisited units are probed once",
		n:    6, x: 6, m: 3,
		script: []scripted{
			{boundary: 0.4},
			{boundary: 0.2},
			{boundary: 0.9},
			{boundary: 0.3},
		},
		rest: scripted{boundary: 0.8},
		want: 1, wantBoundary: 0.2,
	},
	{
		name: "equal boundaries: the first probed wins",
		n:    5, x: 5, m: 1,
		script: []scripted{
			{boundary: 0.3},
			{boundary: 0.2},
			{boundary: 0.2, neverReceives: true},
		},
		rest: scripted{boundary: 0.7},
		want: 1, wantBoundary: 0.2,
	},
	{
		name: "live: a probe lost in transport is skipped",
		n:    4, x: 4, m: 2,
		script: []scripted{
			{probeFails: true},
			{boundary: 0.3},
		},
		rest: scripted{boundary: 0.9},
		want: 1, wantBoundary: 0.3,
		liveOnly: true,
	},
	{
		name: "live: a put refused after the probe falls through to the next boundary",
		n:    4, x: 4, m: 1,
		script: []scripted{
			{boundary: 0.3},
			{boundary: 0.1, refusesPut: true},
			{boundary: 0.2},
		},
		rest: scripted{boundary: 0.4, neverReceives: true},
		want: 2, wantBoundary: 0.2,
		liveOnly: true,
	},
	{
		name: "live: a free unit that refuses the put does not end the walk",
		n:    4, x: 4, m: 1,
		script: []scripted{
			{boundary: 0, refusesPut: true},
			{boundary: 0.3},
		},
		rest: scripted{boundary: 0.9},
		want: 1, wantBoundary: 0.3,
		liveOnly: true,
	},
	{
		name: "live: a remote verdict on the probe aborts the walk",
		n:    4, x: 4, m: 2,
		script: []scripted{
			{boundary: 0.3, neverReceives: true},
			{probeVerdict: true},
		},
		rest: scripted{boundary: 0, neverProbed: true},
		want: -1, wantErr: client.ErrDuplicate,
		liveOnly: true,
	},
	{
		name: "live: a remote verdict on the put aborts the fall-through",
		n:    4, x: 4, m: 1,
		script: []scripted{
			{boundary: 0.2, putIsVerdict: true},
			{boundary: 0.3, neverReceives: true},
		},
		rest: scripted{boundary: 0.9},
		want: -1, wantErr: client.ErrDuplicate,
		liveOnly: true,
	},
}

func TestPlacementRuleSimulated(t *testing.T) {
	const (
		mb   = int64(1) << 20
		walk = 8
	)
	for _, tc := range ruleCases {
		if tc.liveOnly {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			var rejected []cluster.Rejection
			build := func() (*cluster.Cluster, *rand.Rand) {
				rng := rand.New(rand.NewSource(7))
				c, err := cluster.New(tc.n, 100*mb, policy.TemporalImportance{}, 4, rng,
					cluster.WithSampleSize(tc.x), cluster.WithMaxTries(tc.m), cluster.WithWalkLength(walk),
					cluster.WithRejectionHook(func(r cluster.Rejection) { rejected = append(rejected, r) }))
				if err != nil {
					t.Fatalf("cluster.New: %v", err)
				}
				return c, rng
			}
			// A twin built from the same seed predicts the probe order:
			// Place draws the walk origin, then one sample per round, and
			// nothing else.
			twin, trng := build()
			origin := trng.Intn(tc.n)
			var order []int
			pos := map[int]int{}
			for round := 0; round < tc.m; round++ {
				sample, err := twin.Graph().SampleViaWalks(trng, origin, tc.x, walk)
				if err != nil {
					t.Fatalf("SampleViaWalks: %v", err)
				}
				for _, u := range sample {
					if _, seen := pos[u]; !seen {
						pos[u] = len(order)
						order = append(order, u)
					}
				}
			}
			if tc.want >= len(order) {
				t.Fatalf("seed reaches only %d distinct units, case needs %d", len(order), tc.want+1)
			}

			c, _ := build()
			for i := 0; i < c.Len(); i++ {
				k, probed := pos[i]
				if !probed {
					k = len(tc.script) // rest
				}
				s := tc.unit(k)
				if s.boundary == 0 {
					continue // free space
				}
				u, err := c.Unit(i)
				if err != nil {
					t.Fatalf("Unit: %v", err)
				}
				fill, err := object.New(object.ID(fmt.Sprintf("fill-%d", i)), 100*mb, 0, importance.Constant{Level: s.boundary})
				if err != nil {
					t.Fatalf("object.New: %v", err)
				}
				if _, err := u.Put(fill, 0); err != nil {
					t.Fatalf("fill unit %d: %v", i, err)
				}
			}
			arrival, err := object.New("in", 10*mb, 0, importance.Constant{Level: arrivalLevel})
			if err != nil {
				t.Fatalf("object.New: %v", err)
			}
			p, ok, err := c.Place(arrival, 0)
			if err != nil {
				t.Fatalf("Place: %v", err)
			}
			if tc.want < 0 {
				if ok {
					t.Fatalf("placed on unit %d, want a rejection", p.Unit)
				}
				if len(rejected) != 1 || rejected[0].BestBoundary != tc.wantBoundary {
					t.Errorf("rejections = %+v, want one at boundary %v", rejected, tc.wantBoundary)
				}
				if p.Probed != len(order) || p.Rounds != tc.m {
					t.Errorf("probed %d units in %d rounds, want %d in %d", p.Probed, p.Rounds, len(order), tc.m)
				}
				return
			}
			if !ok {
				t.Fatalf("rejected, want unit %d", order[tc.want])
			}
			if p.Unit != order[tc.want] || p.Boundary != tc.wantBoundary {
				t.Errorf("placed on unit %d at boundary %v, want unit %d (probe #%d) at %v",
					p.Unit, p.Boundary, order[tc.want], tc.want, tc.wantBoundary)
			}
			// A free unit ends the walk on the spot; otherwise every round
			// runs and every distinct unit is probed exactly once.
			wantProbed := len(order)
			if tc.unit(tc.want).boundary == 0 {
				wantProbed = tc.want + 1
			}
			if p.Probed != wantProbed {
				t.Errorf("probed %d units, want %d", p.Probed, wantProbed)
			}
			u, err := c.Unit(p.Unit)
			if err != nil {
				t.Fatalf("Unit: %v", err)
			}
			if _, err := u.Get("in"); err != nil {
				t.Errorf("object not on the reported unit: %v", err)
			}
		})
	}
}

// liveScript drives the fake nodes of one live case: it hands out scripted
// behaviours in the order the walk first probes the nodes.
type liveScript struct {
	tc ruleCase

	mu     sync.Mutex
	order  []int       // nodes in first-probe order
	pos    map[int]int // node -> position in order
	probes map[int]int
	puts   map[int]int
}

func (ls *liveScript) onProbe(node int) scripted {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if _, seen := ls.pos[node]; !seen {
		ls.pos[node] = len(ls.order)
		ls.order = append(ls.order, node)
	}
	ls.probes[node]++
	return ls.tc.unit(ls.pos[node])
}

func (ls *liveScript) onPut(node int) scripted {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.puts[node]++
	k, probed := ls.pos[node]
	if !probed {
		return scripted{neverReceives: true}
	}
	return ls.tc.unit(k)
}

// serve answers one fake node's connection from the script.
func (ls *liveScript) serve(node int, conn net.Conn) {
	defer conn.Close()
	for {
		body, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		req, err := wire.Decode(body)
		if err != nil {
			return
		}
		var resp wire.Message
		switch req := req.(type) {
		case *wire.Probe:
			s := ls.onProbe(node)
			switch {
			case s.probeFails:
				return
			case s.probeVerdict:
				resp = &wire.ErrorMsg{Code: wire.CodeDuplicate, Text: "scripted"}
			default:
				resp = &wire.ProbeResult{Admissible: s.admits(), Boundary: s.boundary}
			}
		case *wire.Put:
			s := ls.onPut(node)
			switch {
			case s.putIsVerdict:
				resp = &wire.ErrorMsg{Code: wire.CodeDuplicate, Text: "scripted"}
			case s.refusesPut:
				resp = &wire.PutResult{Admitted: false, Boundary: 0.95}
			default:
				resp = &wire.PutResult{Admitted: true, Boundary: s.boundary}
			}
		case *wire.Batch:
			s := ls.onPut(node)
			br := &wire.BatchResult{}
			for range req.Subs {
				br.Results = append(br.Results, &wire.PutResult{Admitted: true, Boundary: s.boundary})
			}
			resp = br
		default:
			resp = &wire.ErrorMsg{Code: wire.CodeInternal, Text: "unscripted request"}
		}
		out, err := wire.Encode(resp)
		if err != nil {
			return
		}
		if err := wire.WriteFrame(conn, out); err != nil {
			return
		}
	}
}

// startLive builds a cluster client over tc.n scripted fake nodes. wait
// closes the client and returns once every fake node has hung up, after
// which the script's records are safe to read.
func startLive(t *testing.T, tc ruleCase) (ls *liveScript, cc *client.ClusterClient, wait func()) {
	t.Helper()
	ls = &liveScript{tc: tc, pos: map[int]int{}, probes: map[int]int{}, puts: map[int]int{}}
	clients := make([]*client.Client, tc.n)
	var wg sync.WaitGroup
	for i := range clients {
		clientEnd, serverEnd := net.Pipe()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ls.serve(i, serverEnd)
		}(i)
		clients[i] = client.NewClient(clientEnd)
	}
	cc, err := client.NewClusterClient(clients, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatalf("NewClusterClient: %v", err)
	}
	cc.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	cc.SampleSize, cc.MaxTries = tc.x, tc.m
	return ls, cc, func() {
		if err := cc.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		wg.Wait()
	}
}

func TestPlacementRuleLive(t *testing.T) {
	for _, tc := range ruleCases {
		t.Run(tc.name, func(t *testing.T) {
			ls, cc, wait := startLive(t, tc)
			p, err := cc.PutCtx(context.Background(), client.PutRequest{
				ID:         "in",
				Importance: importance.Constant{Level: arrivalLevel},
				Payload:    []byte("sixteen bytes..."),
			})
			wait()

			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
				t.Fatalf("PutCtx err = %v, want %v", err, tc.wantErr)
			}
			if tc.want >= len(ls.order) {
				t.Fatalf("seed reached only %d distinct nodes, case needs %d", len(ls.order), tc.want+1)
			}
			for node, k := range ls.pos {
				s := tc.unit(k)
				if ls.probes[node] != 1 {
					t.Errorf("node %d (probe #%d) probed %d times, want once", node, k, ls.probes[node])
				}
				if s.neverProbed {
					t.Errorf("node %d (probe #%d) was probed; the walk should have ended before it", node, k)
				}
				wantPuts := 0
				if k == tc.want || s.refusesPut || s.putIsVerdict {
					wantPuts = 1
				}
				if s.neverReceives {
					wantPuts = 0
				}
				if ls.puts[node] != wantPuts {
					t.Errorf("node %d (probe #%d) saw %d puts, want %d", node, k, ls.puts[node], wantPuts)
				}
			}
			for node, n := range ls.puts {
				if _, probed := ls.pos[node]; !probed {
					t.Errorf("node %d saw %d puts without being probed", node, n)
				}
			}
			if tc.want < 0 {
				return
			}
			if p.Node != ls.order[tc.want] || p.Boundary != tc.wantBoundary {
				t.Errorf("placed on node %d at boundary %v, want node %d (probe #%d) at %v",
					p.Node, p.Boundary, ls.order[tc.want], tc.want, tc.wantBoundary)
			}
			if tc.unit(0).probeFails {
				if got := cc.Counters()["probe_failures"]; got != 1 {
					t.Errorf("probe_failures = %d, want 1", got)
				}
			}
		})
	}
}
