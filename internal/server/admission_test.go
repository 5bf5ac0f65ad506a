package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/importance"
	"besteffs/internal/journal"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/store"
	"besteffs/internal/wire"
)

// The admission table. One object -- "target", 2048 bytes at importance 0.6
// -- is driven into a durable node (WAL, manual clock, 1 and 4 shards, the
// payloads in the file store and then in a MemStore) through every entry
// the server has for a new copy of an object: a PUT frame, a BATCH frame
// holding that PUT, a coalesced run of that PUT and a GET, an UPDATE frame,
// and a REPLICATE frame in each of its outcomes. Each entry runs under free space, under pressure (one resident
// must go) and at a boundary that rejects the object, and the node is then
// observed from every side a caller or a recovery can see: the response, the
// resident set, the journal records the entry appended, the flight-recorder
// events it left, the store counters and the payload a GET returns. Before
// it is observed, every frame the entry sent is overwritten with 0xDB, as a
// connection's read buffer is by the frames after it, and every resident
// must still serve its own bytes: the node keeps no slice of a frame. Entries
// of one family must observe exactly the same thing; every family's
// observation is pinned, so a change to how the server admits has to
// reproduce all of it.

const (
	admShardCap = 4096 // bytes per shard, so the scenarios are the same at every shard count
	admTrace    = "trace-admission"

	// fnv-64a sends all of these to one shard of four, so a four-shard node
	// plays the scenarios out on a single shard, like the one-shard node.
	admTarget object.ID = "target"
	admCheap  object.ID = "cheap"
	admE      object.ID = "e"
	admI      object.ID = "i"

	admSeedsAt = time.Hour     // the clock when the residents arrive
	admEntryAt = 2 * time.Hour // the clock when the target does
	admAge     = 30 * time.Minute
)

var (
	admImp        = importance.Constant{Level: 0.6}
	admNewPayload = bytes.Repeat([]byte("new!"), 512)
	admOldPayload = bytes.Repeat([]byte("old."), 128)
)

// admScenario is the state of the target's shard when the target arrives:
// three residents of one size, the first of them ("cheap") at its own level.
type admScenario struct {
	name     string
	seedSize int
	cheapAt  float64
	othersAt float64
}

var admScenarios = []admScenario{
	// Room for the target beside the residents.
	{name: "free", seedSize: 256, cheapAt: 0.2, othersAt: 0.5},
	// 1024 bytes short, and "cheap" is the one resident below the target.
	{name: "pressure", seedSize: 1024, cheapAt: 0.2, othersAt: 0.5},
	// 1024 bytes short, and every resident outranks the target.
	{name: "rejecting", seedSize: 1024, cheapAt: 0.9, othersAt: 0.9},
}

// failNextStore is a payload store whose next commit, single or grouped,
// can be made to fail.
type failNextStore struct {
	blob.Store
	failNext error
}

func (f *failNextStore) take() error {
	err := f.failNext
	f.failNext = nil
	return err
}

func (f *failNextStore) Put(id object.ID, payload []byte) error {
	if err := f.take(); err != nil {
		return err
	}
	return f.Store.Put(id, payload)
}

func (f *failNextStore) PutBatch(ids []object.ID, payloads [][]byte) error {
	if err := f.take(); err != nil {
		return err
	}
	return f.Store.PutBatch(ids, payloads)
}

// walProbe counts what a node's journal is asked to do. Segment writes are
// counted where journal.WithWriteWrapper interposes. A sync leaves nothing to
// interpose on, so the probe makes every one fail and counts the failures the
// server logs: it closes each segment's own descriptor, which the WAL syncs,
// and passes the bytes through a descriptor of its own.
type walProbe struct {
	t             *testing.T
	writes, syncs atomic.Int64
}

func (p *walProbe) wrap(_ uint64, w io.Writer) io.Writer {
	seg := w.(*os.File)
	own, err := os.OpenFile(seg.Name(), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		p.t.Fatalf("reopen %s: %v", seg.Name(), err)
	}
	p.t.Cleanup(func() { own.Close() })
	seg.Close()
	return probeWriter{p, own}
}

type probeWriter struct {
	p *walProbe
	w io.Writer
}

func (pw probeWriter) Write(b []byte) (int, error) {
	pw.p.writes.Add(1)
	return pw.w.Write(b)
}

// The probe is the node's log handler: it keeps nothing but the count.
func (p *walProbe) Enabled(context.Context, slog.Level) bool { return true }
func (p *walProbe) WithAttrs([]slog.Attr) slog.Handler       { return p }
func (p *walProbe) WithGroup(string) slog.Handler            { return p }
func (p *walProbe) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "journal sync batch" {
		p.syncs.Add(1)
	}
	return nil
}

// admNode is one durable node of the table.
type admNode struct {
	t       *testing.T
	srv     *Server
	clock   *manualClock
	dataDir string
	files   *blob.FileStore
	wal     *walProbe      // nil unless the node's journal is probed
	faulty  *failNextStore // nil unless the node was built with one
	frames  [][]byte       // the request frames built since the last observation
	seeded  map[object.ID][]byte
}

// openAdmNode opens a node over dataDir with its journal probed. With faulty
// set the file store sits behind a failNextStore.
func openAdmNode(t *testing.T, dataDir string, shards int, faulty bool) *admNode {
	t.Helper()
	n := &admNode{wal: &walProbe{t: t}}
	n.open(t, dataDir, shards, func(files blob.Store) blob.Store {
		if !faulty {
			return files
		}
		n.faulty = &failNextStore{Store: files}
		return n.faulty
	})
	return n
}

// open opens n over dataDir, its file store behind whatever wrap returns and
// its journal probed if n.wal is set.
func (n *admNode) open(t *testing.T, dataDir string, shards int, wrap func(blob.Store) blob.Store) {
	t.Helper()
	var walOpts []journal.WALOption
	log := quietLogger()
	if n.wal != nil {
		walOpts, log = append(walOpts, journal.WithWriteWrapper(n.wal.wrap)), slog.New(n.wal)
	}
	wal, err := OpenWAL(dataDir, walOpts...)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	t.Cleanup(func() { wal.Close() })
	files, err := blob.NewFileStore(filepath.Join(dataDir, "blobs"))
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	t.Cleanup(func() { files.Close() })
	n.t, n.clock, n.dataDir, n.files = t, &manualClock{}, dataDir, files
	n.srv, err = New(EngineConfig{Capacity: admShardCap * int64(shards), Policy: policy.TemporalImportance{}, Shards: shards},
		WithClock(n.clock.Now), WithWAL(wal), WithBlobStore(wrap(files)), WithLogger(log))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	home := n.srv.engine.Home(admTarget)
	for _, id := range []object.ID{admCheap, admE, admI} {
		if n.srv.engine.Home(id) != home {
			t.Fatalf("%s and %s live on different shards of %d; the table needs them together", id, admTarget, shards)
		}
	}
}

// seed brings the node to the scenario's state at admSeedsAt -- the three
// residents and, when prior is not zero, a copy of the target at that
// version holding the old payload -- and moves the clock to admEntryAt.
func (n *admNode) seed(sc admScenario, prior uint32) {
	n.t.Helper()
	n.clock.Advance(admSeedsAt)
	n.seeded = make(map[object.ID][]byte)
	put := func(id object.ID, level float64, payload []byte, version uint32) {
		n.seeded[id] = payload
		res, ok := n.srv.execute(&wire.Put{ID: id, Version: version,
			Importance: importance.Constant{Level: level}, Payload: payload}).(*wire.PutResult)
		if !ok || !res.Admitted {
			n.t.Fatalf("seeding %s: %+v", id, res)
		}
	}
	put(admCheap, sc.cheapAt, bytes.Repeat([]byte("c"), sc.seedSize), 0)
	put(admE, sc.othersAt, bytes.Repeat([]byte("e"), sc.seedSize), 0)
	put(admI, sc.othersAt, bytes.Repeat([]byte("i"), sc.seedSize), 0)
	if prior != 0 {
		put(admTarget, admImp.Level, admOldPayload, prior)
	}
	n.clock.Advance(admEntryAt - admSeedsAt)
}

// frame encodes one request frame, stamped -- when traced -- with the trace
// and span trailers a tracing client attaches.
func (n *admNode) frame(msg wire.Message, traced bool) []byte {
	n.t.Helper()
	body, err := wire.Encode(msg)
	if err != nil {
		n.t.Fatalf("encode %T: %v", msg, err)
	}
	if traced {
		body = wire.AppendSpan(wire.AppendTraceID(body, admTrace), 7, 3)
	}
	n.frames = append(n.frames, body)
	return body
}

// poisonFrames overwrites every frame built since the last call with 0xDB,
// as a connection's reused read buffer is overwritten by its next frames:
// whatever the node kept of a frame past its dispatch reads as poison.
func (n *admNode) poisonFrames() {
	for _, f := range n.frames {
		f = f[:cap(f)]
		for i := range f {
			f[i] = 0xDB
		}
	}
	n.frames = nil
}

// walRecords reads back every record in the node's journal.
func (n *admNode) walRecords() []journal.Record {
	n.t.Helper()
	var recs []journal.Record
	_, err := journal.ReplayWAL(filepath.Join(n.dataDir, WALDirName), 0, func(r journal.Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		n.t.Fatalf("ReplayWAL: %v", err)
	}
	return recs
}

// residents renders the resident set: ID, version, arrival, size.
func (n *admNode) residents() []string {
	var out []string
	for _, o := range n.srv.engine.Residents() {
		out = append(out, fmt.Sprintf("%s v%d arrived=%s size=%d", o.ID, o.Version, o.Arrival, o.Size))
	}
	return out
}

// admObservation is everything the table compares.
type admObservation struct {
	Response  string   // the answer to the frame that carried the target
	Residents []string // after the entry
	WAL       []string // the records the entry appended, in journal order, then what writing them cost
	Events    []string // the flight-recorder events the entry left, in order
	Counters  store.Counters
	Payload   string // what a GET of the target returns: "new", "old" or "none"
}

func renderResponse(m wire.Message) string {
	switch r := m.(type) {
	case *wire.PutResult:
		return fmt.Sprintf("admitted=%v boundary=%g reason=%d evicted=%v", r.Admitted, r.Boundary, r.Reason, r.Evicted)
	case *wire.ErrorMsg:
		return fmt.Sprintf("error code=%d %s", r.Code, r.Text)
	default:
		return fmt.Sprintf("%T %+v", m, m)
	}
}

// observe runs drive and records what it changed.
func (n *admNode) observe(drive func(*admNode) wire.Message) admObservation {
	n.t.Helper()
	walBefore := len(n.walRecords())
	eventsBefore := n.srv.events.Len()
	writesBefore, syncsBefore := n.wal.writes.Load(), n.wal.syncs.Load()
	obs := admObservation{Response: renderResponse(drive(n))}
	n.poisonFrames()
	obs.Residents = n.residents()
	for _, r := range n.walRecords()[walBefore:] {
		line := fmt.Sprintf("%s %s at=%s", r.Kind, r.ID, r.At)
		if r.Kind == journal.KindPut {
			line += fmt.Sprintf(" v%d size=%d", r.Version, r.Size)
		}
		obs.WAL = append(obs.WAL, line)
	}
	if writes, syncs := n.wal.writes.Load()-writesBefore, n.wal.syncs.Load()-syncsBefore; writes+syncs > 0 {
		obs.WAL = append(obs.WAL, fmt.Sprintf("writes=%d syncs=%d", writes, syncs))
	}
	for _, e := range n.srv.events.Snapshot() {
		if e.Seq < eventsBefore {
			continue
		}
		obs.Events = append(obs.Events, fmt.Sprintf("%s %s trace=%q importance=%g boundary=%g detail=%q",
			e.Kind, e.ID, e.Trace, e.Importance, e.Boundary, e.Detail))
	}
	obs.Counters = n.srv.engine.CountersSnapshot()
	obs.Payload = "none"
	if got, ok := n.srv.execute(&wire.Get{ID: admTarget}).(*wire.ObjectMsg); ok {
		switch {
		case bytes.Equal(got.Payload, admNewPayload):
			obs.Payload = "new"
		case bytes.Equal(got.Payload, admOldPayload):
			obs.Payload = "old"
		default:
			obs.Payload = fmt.Sprintf("%d unexpected bytes", len(got.Payload))
		}
	}
	// Every other resident still serves the bytes it was seeded with.
	for _, o := range n.srv.engine.Residents() {
		want, ok := n.seeded[o.ID]
		if o.ID == admTarget || !ok {
			continue
		}
		got, isObj := n.srv.execute(&wire.Get{ID: o.ID}).(*wire.ObjectMsg)
		if !isObj || !bytes.Equal(got.Payload, want) {
			n.t.Errorf("GET %s after the entry did not serve its %d seeded bytes", o.ID, len(want))
		}
	}
	return obs
}

// admEntry is one way into the node for the target.
type admEntry struct {
	name   string
	family string // entries of one family observe the same
	prior  uint32 // version of the copy of the target resident beforehand (0: none)
	drive  func(*admNode) wire.Message
}

func admPut() *wire.Put {
	return &wire.Put{ID: admTarget, Owner: "owner", Importance: admImp, Payload: admNewPayload}
}

func admReplicate(version uint32) *wire.Replicate {
	return &wire.Replicate{ID: admTarget, Owner: "owner", Version: version, Importance: admImp,
		AgeNanos: int64(admAge), Payload: admNewPayload}
}

var admEntries = []admEntry{
	{name: "PUT frame", family: "put", drive: func(n *admNode) wire.Message {
		return n.srv.dispatch(n.frame(admPut(), true)).resp
	}},
	{name: "BATCH of that PUT", family: "put", drive: func(n *admNode) wire.Message {
		res, ok := n.srv.dispatch(n.frame(&wire.Batch{Subs: []wire.Message{admPut()}}, true)).resp.(*wire.BatchResult)
		if !ok || len(res.Results) != 1 {
			n.t.Fatalf("batch of one = %+v", res)
		}
		return res.Results[0]
	}},
	{name: "coalesced PUT and GET", family: "put", drive: func(n *admNode) wire.Message {
		outs := n.srv.dispatchGroup(new(session), [][]byte{n.frame(admPut(), true), n.frame(&wire.Get{ID: admTarget}, true)})
		if len(outs) != 2 || outs[0].op != wire.OpPut || outs[1].op != wire.OpGet {
			n.t.Fatalf("coalesced run = %+v", outs)
		}
		// The GET runs after the run's puts, so it sees what the PUT did.
		pr, _ := outs[0].resp.(*wire.PutResult)
		got, found := outs[1].resp.(*wire.ObjectMsg)
		if admitted := pr != nil && pr.Admitted; admitted != found || (found && !bytes.Equal(got.Payload, admNewPayload)) {
			n.t.Errorf("coalesced GET = %+v beside PUT = %+v", outs[1].resp, outs[0].resp)
		}
		return outs[0].resp
	}},
	{name: "UPDATE frame", family: "update", prior: 1, drive: func(n *admNode) wire.Message {
		return n.srv.dispatch(n.frame(&wire.Update{ID: admTarget, Owner: "owner", Importance: admImp, Payload: admNewPayload}, false)).resp
	}},
	{name: "UPDATE frame, traced", family: "update/traced", prior: 1, drive: func(n *admNode) wire.Message {
		return n.srv.dispatch(n.frame(&wire.Update{ID: admTarget, Owner: "owner", Importance: admImp, Payload: admNewPayload}, true)).resp
	}},
	{name: "REPLICATE, fresh", family: "replicate/fresh", drive: func(n *admNode) wire.Message {
		return n.srv.dispatch(n.frame(admReplicate(1), true)).resp
	}},
	{name: "REPLICATE, supersedes the resident", family: "replicate/supersedes", prior: 1, drive: func(n *admNode) wire.Message {
		return n.srv.dispatch(n.frame(admReplicate(2), true)).resp
	}},
	{name: "REPLICATE, superseded by the resident", family: "replicate/superseded", prior: 3, drive: func(n *admNode) wire.Message {
		return n.srv.dispatch(n.frame(admReplicate(2), true)).resp
	}},
}

// admWant pins every family's observation under every scenario. The
// records and events of an admission come after those of the evictions that
// made room for it; a replica is journaled at its reconstructed arrival.
// Whatever an entry journals reaches its WAL in one write, synced when it
// admitted something.
var admWant = map[string]admObservation{
	"put/free": {
		Response:  "admitted=true boundary=0 reason=0 evicted=[]",
		Residents: []string{"cheap v1 arrived=1h0m0s size=256", "e v1 arrived=1h0m0s size=256", "i v1 arrived=1h0m0s size=256", "target v1 arrived=2h0m0s size=2048"},
		WAL:       []string{"put target at=2h0m0s v1 size=2048", "writes=1 syncs=1"},
		Events:    []string{`admit target trace="trace-admission" importance=0.6 boundary=0 detail=""`},
		Counters:  store.Counters{Admitted: 4, AdmittedBytes: 2816},
		Payload:   "new",
	},
	"put/pressure": {
		Response:  "admitted=true boundary=0.2 reason=0 evicted=[cheap]",
		Residents: []string{"e v1 arrived=1h0m0s size=1024", "i v1 arrived=1h0m0s size=1024", "target v1 arrived=2h0m0s size=2048"},
		WAL:       []string{"evict cheap at=2h0m0s", "put target at=2h0m0s v1 size=2048", "writes=1 syncs=1"},
		Events: []string{`evict cheap trace="" importance=0 boundary=0 detail=""`,
			`admit target trace="trace-admission" importance=0.6 boundary=0.2 detail=""`},
		Counters: store.Counters{Admitted: 4, Evicted: 1, AdmittedBytes: 5120, EvictedBytes: 1024},
		Payload:  "new",
	},
	"put/rejecting": {
		Response:  "admitted=false boundary=0.9 reason=2 evicted=[]",
		Residents: []string{"cheap v1 arrived=1h0m0s size=1024", "e v1 arrived=1h0m0s size=1024", "i v1 arrived=1h0m0s size=1024"},
		Events:    []string{`reject target trace="trace-admission" importance=0.6 boundary=0.9 detail=""`},
		Counters:  store.Counters{Admitted: 3, Rejected: 1, AdmittedBytes: 3072},
		Payload:   "none",
	},

	// An update evicts the version it supersedes, then its victims.
	"update/free": {
		Response:  "admitted=true boundary=0 reason=0 evicted=[]",
		Residents: []string{"cheap v1 arrived=1h0m0s size=256", "e v1 arrived=1h0m0s size=256", "i v1 arrived=1h0m0s size=256", "target v2 arrived=2h0m0s size=2048"},
		WAL:       []string{"evict target at=2h0m0s", "put target at=2h0m0s v2 size=2048", "writes=1 syncs=1"},
		Events: []string{`evict target trace="" importance=0 boundary=0 detail=""`,
			`admit target trace="" importance=0.6 boundary=0 detail=""`},
		Counters: store.Counters{Admitted: 5, Evicted: 1, AdmittedBytes: 3328, EvictedBytes: 512},
		Payload:  "new",
	},
	"update/pressure": {
		Response:  "admitted=true boundary=0.2 reason=0 evicted=[cheap]",
		Residents: []string{"e v1 arrived=1h0m0s size=1024", "i v1 arrived=1h0m0s size=1024", "target v2 arrived=2h0m0s size=2048"},
		WAL:       []string{"evict target at=2h0m0s", "evict cheap at=2h0m0s", "put target at=2h0m0s v2 size=2048", "writes=1 syncs=1"},
		Events: []string{`evict target trace="" importance=0 boundary=0 detail=""`,
			`evict cheap trace="" importance=0 boundary=0 detail=""`,
			`admit target trace="" importance=0.6 boundary=0.2 detail=""`},
		Counters: store.Counters{Admitted: 5, Evicted: 2, AdmittedBytes: 5632, EvictedBytes: 1536},
		Payload:  "new",
	},
	"update/rejecting": {
		Response:  "admitted=false boundary=0.9 reason=2 evicted=[]",
		Residents: []string{"cheap v1 arrived=1h0m0s size=1024", "e v1 arrived=1h0m0s size=1024", "i v1 arrived=1h0m0s size=1024", "target v1 arrived=1h0m0s size=512"},
		Events:    []string{`reject target trace="" importance=0.6 boundary=0.9 detail=""`},
		Counters:  store.Counters{Admitted: 4, Rejected: 1, AdmittedBytes: 3584},
		Payload:   "old",
	},

	// A traced update's verdict event carries the frame's trace, like a put's.
	"update/traced/free": {
		Response:  "admitted=true boundary=0 reason=0 evicted=[]",
		Residents: []string{"cheap v1 arrived=1h0m0s size=256", "e v1 arrived=1h0m0s size=256", "i v1 arrived=1h0m0s size=256", "target v2 arrived=2h0m0s size=2048"},
		WAL:       []string{"evict target at=2h0m0s", "put target at=2h0m0s v2 size=2048", "writes=1 syncs=1"},
		Events: []string{`evict target trace="" importance=0 boundary=0 detail=""`,
			`admit target trace="trace-admission" importance=0.6 boundary=0 detail=""`},
		Counters: store.Counters{Admitted: 5, Evicted: 1, AdmittedBytes: 3328, EvictedBytes: 512},
		Payload:  "new",
	},
	"update/traced/pressure": {
		Response:  "admitted=true boundary=0.2 reason=0 evicted=[cheap]",
		Residents: []string{"e v1 arrived=1h0m0s size=1024", "i v1 arrived=1h0m0s size=1024", "target v2 arrived=2h0m0s size=2048"},
		WAL:       []string{"evict target at=2h0m0s", "evict cheap at=2h0m0s", "put target at=2h0m0s v2 size=2048", "writes=1 syncs=1"},
		Events: []string{`evict target trace="" importance=0 boundary=0 detail=""`,
			`evict cheap trace="" importance=0 boundary=0 detail=""`,
			`admit target trace="trace-admission" importance=0.6 boundary=0.2 detail=""`},
		Counters: store.Counters{Admitted: 5, Evicted: 2, AdmittedBytes: 5632, EvictedBytes: 1536},
		Payload:  "new",
	},
	"update/traced/rejecting": {
		Response:  "admitted=false boundary=0.9 reason=2 evicted=[]",
		Residents: []string{"cheap v1 arrived=1h0m0s size=1024", "e v1 arrived=1h0m0s size=1024", "i v1 arrived=1h0m0s size=1024", "target v1 arrived=1h0m0s size=512"},
		Events:    []string{`reject target trace="trace-admission" importance=0.6 boundary=0.9 detail=""`},
		Counters:  store.Counters{Admitted: 4, Rejected: 1, AdmittedBytes: 3584},
		Payload:   "old",
	},

	// A replica answers with the verdict alone and arrives admAge ago.
	"replicate/fresh/free": {
		Response:  "admitted=true boundary=0 reason=0 evicted=[]",
		Residents: []string{"cheap v1 arrived=1h0m0s size=256", "e v1 arrived=1h0m0s size=256", "i v1 arrived=1h0m0s size=256", "target v1 arrived=1h30m0s size=2048"},
		WAL:       []string{"put target at=1h30m0s v1 size=2048", "writes=1 syncs=1"},
		Events:    []string{`admit target trace="" importance=0.6 boundary=0 detail="replica"`},
		Counters:  store.Counters{Admitted: 4, AdmittedBytes: 2816},
		Payload:   "new",
	},
	"replicate/fresh/pressure": {
		Response:  "admitted=true boundary=0 reason=0 evicted=[]",
		Residents: []string{"e v1 arrived=1h0m0s size=1024", "i v1 arrived=1h0m0s size=1024", "target v1 arrived=1h30m0s size=2048"},
		WAL:       []string{"evict cheap at=2h0m0s", "put target at=1h30m0s v1 size=2048", "writes=1 syncs=1"},
		Events: []string{`evict cheap trace="" importance=0 boundary=0 detail=""`,
			`admit target trace="" importance=0.6 boundary=0.2 detail="replica"`},
		Counters: store.Counters{Admitted: 4, Evicted: 1, AdmittedBytes: 5120, EvictedBytes: 1024},
		Payload:  "new",
	},
	"replicate/fresh/rejecting": { // refused by the policy
		Response:  "admitted=false boundary=0 reason=0 evicted=[]",
		Residents: []string{"cheap v1 arrived=1h0m0s size=1024", "e v1 arrived=1h0m0s size=1024", "i v1 arrived=1h0m0s size=1024"},
		Events:    []string{`reject target trace="" importance=0.6 boundary=0.9 detail="replica"`},
		Counters:  store.Counters{Admitted: 3, Rejected: 1, AdmittedBytes: 3072},
		Payload:   "none",
	},

	// A superseding replica deletes the resident copy, then stands for
	// admission like a fresh one -- and loses both copies if it is refused.
	"replicate/supersedes/free": {
		Response:  "admitted=true boundary=0 reason=0 evicted=[]",
		Residents: []string{"cheap v1 arrived=1h0m0s size=256", "e v1 arrived=1h0m0s size=256", "i v1 arrived=1h0m0s size=256", "target v2 arrived=1h30m0s size=2048"},
		WAL:       []string{"delete target at=2h0m0s", "put target at=1h30m0s v2 size=2048", "writes=1 syncs=1"},
		Events:    []string{`admit target trace="" importance=0.6 boundary=0 detail="replica"`},
		Counters:  store.Counters{Admitted: 5, Deleted: 1, AdmittedBytes: 3328},
		Payload:   "new",
	},
	"replicate/supersedes/pressure": {
		Response:  "admitted=true boundary=0 reason=0 evicted=[]",
		Residents: []string{"e v1 arrived=1h0m0s size=1024", "i v1 arrived=1h0m0s size=1024", "target v2 arrived=1h30m0s size=2048"},
		WAL:       []string{"delete target at=2h0m0s", "evict cheap at=2h0m0s", "put target at=1h30m0s v2 size=2048", "writes=1 syncs=1"},
		Events: []string{`evict cheap trace="" importance=0 boundary=0 detail=""`,
			`admit target trace="" importance=0.6 boundary=0.2 detail="replica"`},
		Counters: store.Counters{Admitted: 5, Evicted: 1, Deleted: 1, AdmittedBytes: 5632, EvictedBytes: 1024},
		Payload:  "new",
	},
	"replicate/supersedes/rejecting": {
		Response:  "admitted=false boundary=0 reason=0 evicted=[]",
		Residents: []string{"cheap v1 arrived=1h0m0s size=1024", "e v1 arrived=1h0m0s size=1024", "i v1 arrived=1h0m0s size=1024"},
		WAL:       []string{"delete target at=2h0m0s", "writes=1 syncs=0"},
		Events:    []string{`reject target trace="" importance=0.6 boundary=0.9 detail="replica"`},
		Counters:  store.Counters{Admitted: 4, Rejected: 1, Deleted: 1, AdmittedBytes: 3584},
		Payload:   "none",
	},

	// A replica the resident copy supersedes changes nothing and is
	// answered as held.
	"replicate/superseded/free": {
		Response:  "admitted=true boundary=0 reason=0 evicted=[]",
		Residents: []string{"cheap v1 arrived=1h0m0s size=256", "e v1 arrived=1h0m0s size=256", "i v1 arrived=1h0m0s size=256", "target v3 arrived=1h0m0s size=512"},
		Counters:  store.Counters{Admitted: 4, AdmittedBytes: 1280},
		Payload:   "old",
	},
	"replicate/superseded/pressure": {
		Response:  "admitted=true boundary=0 reason=0 evicted=[]",
		Residents: []string{"cheap v1 arrived=1h0m0s size=1024", "e v1 arrived=1h0m0s size=1024", "i v1 arrived=1h0m0s size=1024", "target v3 arrived=1h0m0s size=512"},
		Counters:  store.Counters{Admitted: 4, AdmittedBytes: 3584},
		Payload:   "old",
	},
	"replicate/superseded/rejecting": {
		Response:  "admitted=true boundary=0 reason=0 evicted=[]",
		Residents: []string{"cheap v1 arrived=1h0m0s size=1024", "e v1 arrived=1h0m0s size=1024", "i v1 arrived=1h0m0s size=1024", "target v3 arrived=1h0m0s size=512"},
		Counters:  store.Counters{Admitted: 4, AdmittedBytes: 3584},
		Payload:   "old",
	},
}

func TestAdmissionTable(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, sc := range admScenarios {
			for _, entry := range admEntries {
				t.Run(fmt.Sprintf("shards=%d/%s/%s", shards, sc.name, entry.name), func(t *testing.T) {
					// The payloads live in the file store, as on a durable
					// node, and then in a MemStore, which keeps its own copy.
					for _, payloads := range []string{"file", "memory"} {
						n := &admNode{wal: &walProbe{t: t}}
						n.open(t, t.TempDir(), shards, func(files blob.Store) blob.Store {
							if payloads == "memory" {
								return blob.NewMemStore()
							}
							return files
						})
						n.seed(sc, entry.prior)
						got := n.observe(entry.drive)
						key := entry.family + "/" + sc.name
						want, ok := admWant[key]
						if !ok {
							t.Fatalf("no pinned observation for %s; observed:\n%#v", key, got)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("payloads in %s: observed\n%s\nwant\n%s", payloads, got, want)
						}
					}
				})
			}
		}
	}
}

func (o admObservation) String() string {
	return fmt.Sprintf("  response:  %s\n  residents: %s\n  wal:       %s\n  events:    %s\n  counters:  %+v\n  payload:   %s",
		o.Response, strings.Join(o.Residents, "; "), strings.Join(o.WAL, "; "), strings.Join(o.Events, "; "), o.Counters, o.Payload)
}

// TestGroupCommitIsOneJournalWrite: a 64-wide put group that preempts 64
// residents journals its 128 records in one WAL write and one sync -- on a
// sharded node, one of each per shard -- and a lone DELETE in one write and no
// sync.
func TestGroupCommitIsOneJournalWrite(t *testing.T) {
	const width = 64
	size := admShardCap / width
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			n := openAdmNode(t, t.TempDir(), shards, false)
			group := func(prefix string, level float64) *wire.Batch {
				b := &wire.Batch{}
				for i := 0; i < width*shards; i++ {
					b.Subs = append(b.Subs, &wire.Put{ID: object.ID(fmt.Sprintf("%s/%d", prefix, i)),
						Importance: importance.Constant{Level: level}, Payload: make([]byte, size)})
				}
				return b
			}
			admitted := func(res wire.Message) (admitted, evicted int) {
				for _, r := range res.(*wire.BatchResult).Results {
					if pr, ok := r.(*wire.PutResult); ok && pr.Admitted {
						admitted++
						evicted += len(pr.Evicted)
					}
				}
				return admitted, evicted
			}
			// Fill the shards, then offer as many objects again that outrank
			// every resident.
			n.srv.execute(group("low", 0.2))
			walBefore, writesBefore, syncsBefore := len(n.walRecords()), n.wal.writes.Load(), n.wal.syncs.Load()
			got, evicted := admitted(n.srv.execute(group("high", 0.9)))
			if got < width || evicted < width {
				t.Fatalf("the group admitted %d and preempted %d, want %d or more of each", got, evicted, width)
			}
			touched := map[int]bool{}
			for _, o := range n.srv.engine.Residents() {
				touched[n.srv.engine.Home(o.ID)] = true
			}
			if recs := len(n.walRecords()) - walBefore; recs != got+evicted {
				t.Errorf("the group journaled %d records, want %d", recs, got+evicted)
			}
			writes, syncs := n.wal.writes.Load()-writesBefore, n.wal.syncs.Load()-syncsBefore
			if want := int64(len(touched)); writes != want || syncs != want {
				t.Errorf("the group cost %d WAL write(s) and %d sync(s) over %d shard(s), want one of each per shard", writes, syncs, want)
			}

			writesBefore, syncsBefore = n.wal.writes.Load(), n.wal.syncs.Load()
			victim := n.srv.engine.Residents()[0].ID
			if _, ok := n.srv.execute(&wire.Delete{ID: victim}).(*wire.OK); !ok {
				t.Fatalf("DELETE %s refused", victim)
			}
			if writes, syncs := n.wal.writes.Load()-writesBefore, n.wal.syncs.Load()-syncsBefore; writes != 1 || syncs != 0 {
				t.Errorf("a lone DELETE cost %d WAL write(s) and %d sync(s), want 1 and 0", writes, syncs)
			}
		})
	}
}

// TestFailedCommitAdmitsNothingByAnyEntry extends
// TestFailedGroupCommitAdmitsNone to every entry: under pressure, with a
// payload store that refuses the entry's commit, the frame is answered
// CodeInternal, no copy of the target is resident, the victim the admission
// preempted stays evicted, no KindPut reaches the journal, and a node
// restored over the abandoned directory holds the same residents.
func TestFailedCommitAdmitsNothingByAnyEntry(t *testing.T) {
	pressure := admScenarios[1]
	for _, shards := range []int{1, 4} {
		for _, entry := range admEntries {
			if entry.family == "replicate/superseded" {
				continue // answers from the resident copy; commits nothing
			}
			t.Run(fmt.Sprintf("shards=%d/%s", shards, entry.name), func(t *testing.T) {
				dataDir := t.TempDir()
				n := openAdmNode(t, dataDir, shards, true)
				n.seed(pressure, entry.prior)
				walBefore := len(n.walRecords())
				writesBefore, syncsBefore := n.wal.writes.Load(), n.wal.syncs.Load()
				n.faulty.failNext = errors.New("disk on fire")
				res := entry.drive(n)
				if e, ok := res.(*wire.ErrorMsg); !ok || e.Code != wire.CodeInternal || !strings.Contains(e.Text, "disk on fire") {
					t.Errorf("response = %+v, want the store's error as CodeInternal", res)
				}
				if n.faulty.failNext != nil {
					t.Error("the entry never reached the payload store")
				}
				for _, id := range []object.ID{admTarget, admCheap} {
					if _, err := n.srv.engine.Get(id); err == nil {
						t.Errorf("%s is resident after the refused commit", id)
					}
				}
				for _, r := range n.walRecords()[walBefore:] {
					if r.Kind == journal.KindPut {
						t.Errorf("journaled %s %s after the refused commit", r.Kind, r.ID)
					}
				}
				// The removals still reach the journal, in one write, unsynced.
				if writes, syncs := n.wal.writes.Load()-writesBefore, n.wal.syncs.Load()-syncsBefore; writes != 1 || syncs != 0 {
					t.Errorf("the rolled-back entry cost %d WAL write(s) and %d sync(s), want 1 and 0", writes, syncs)
				}
				// Abandon the node -- nothing closed, nothing checkpointed.
				again := openAdmNode(t, dataDir, shards, false)
				if _, err := again.srv.RestoreDir(dataDir); err != nil {
					t.Fatalf("RestoreDir: %v", err)
				}
				if got, want := again.residents(), n.residents(); !reflect.DeepEqual(got, want) {
					t.Errorf("restored residents %v, want %v", got, want)
				}
			})
		}
	}
}
