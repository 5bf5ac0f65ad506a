package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/client"
	"besteffs/internal/importance"
	"besteffs/internal/journal"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/server"
	"besteffs/internal/store"
	"besteffs/internal/wire"
)

// The layer probes time calls into each package's exported functions, from
// here, with inputs sized like the workloads (128 B and 1 KiB and 4 KiB
// payloads, 64-wide batches, 256 / 4096 / 65536 residents). Nothing inside
// the program is instrumented. Every timing is the median over rounds of a
// per-call mean, so one descheduled round does not move it.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// firstErr remembers the first error a timed closure met; the probe checks
// it once the timing loop is over.
type firstErr struct{ err error }

func (f *firstErr) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// timeCalls runs fn in rounds of per calls each and returns the median
// per-call time in nanoseconds.
func timeCalls(rounds, per int, fn func()) float64 {
	means := make([]float64, rounds)
	for r := range means {
		start := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		means[r] = float64(time.Since(start)) / float64(per)
	}
	return median(means)
}

// timeEach times n calls of fn one by one and returns the median in
// nanoseconds: for calls long enough (tens of microseconds and up) that the
// clock reads do not matter, and whose cost varies from call to call, so
// that the figure compares with an end-to-end median.
func timeEach(n int, fn func()) float64 {
	each := make([]float64, n)
	for i := range each {
		start := time.Now()
		fn()
		each[i] = float64(time.Since(start))
	}
	return median(each)
}

// allocsPerCall counts heap allocations per call of fn, rounded down like
// testing.AllocsPerRun: the probes run alone on one P, and the few
// allocations the runtime itself makes meanwhile do not add up to one per
// call.
func allocsPerCall(calls int, fn func()) float64 {
	fn() // first-call set-up is not a per-call cost
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(calls))
}

// saturatedResidents builds n Linear{1,day} residents of the given size,
// arriving a millisecond apart, so current importance ranks them by age.
func saturatedResidents(n int, size int64) []*object.Object {
	out := make([]*object.Object, n)
	for i := range out {
		o, err := object.New(object.ID(fmt.Sprintf("r/%07d", i)), size, time.Duration(i)*time.Millisecond, linearDay)
		if err != nil {
			panic(err) // constant, valid arguments
		}
		out[i] = o
	}
	return out
}

// saturatedUnit builds a full single unit of n residents.
func saturatedUnit(n int, size int64) (*store.Unit, time.Duration, error) {
	u, err := store.New(int64(n)*size, policy.TemporalImportance{})
	if err != nil {
		return nil, 0, err
	}
	for _, o := range saturatedResidents(n, size) {
		if _, err := u.Put(o, o.Arrival); err != nil {
			return nil, 0, err
		}
	}
	return u, time.Duration(n) * time.Millisecond, nil
}

// freshObject builds the i-th incoming object of a probe.
func freshObject(i int, size int64, now time.Duration, imp importance.Function) *object.Object {
	o, err := object.New(object.ID(fmt.Sprintf("n/%07d", i)), size, now, imp)
	if err != nil {
		panic(err) // constant, valid arguments
	}
	return o
}

func probeImportance() []metric {
	pw, err := importance.NewPiecewise([]importance.Point{
		{Age: 0, Value: 1}, {Age: day / 2, Value: 0.7}, {Age: day, Value: 0.2}, {Age: 2 * day, Value: 0},
	})
	if err != nil {
		panic(err) // constant, valid arguments
	}
	fns := []importance.Function{linearDay, twoStepDay, pw, constantLo}
	age := time.Duration(0)
	at := timeCalls(20, 4000, func() {
		age += time.Second
		sink = fns[int(age/time.Second)%len(fns)].At(age % (2 * day))
	})
	buf := make([]byte, 0, 64)
	i := 0
	codec := timeCalls(20, 2000, func() {
		i++
		b, err := importance.AppendEncode(buf[:0], fns[i%len(fns)])
		if err != nil {
			panic(err) // constant, valid input: only a bug gets here
		}
		f, _, err := importance.Decode(b)
		if err != nil {
			panic(err) // constant, valid input: only a bug gets here
		}
		sink = f
	})
	return []metric{
		{"importance.at_ns", at, "ns", 20 * 4000},
		{"importance.codec_ns", codec, "ns", 20 * 2000},
	}
}

// turnoverView builds the view a saturated unit of n residents hands the
// policy k evictions into a turnover. The unit keeps its residents in a
// slice and fills the hole an eviction leaves with the last element, so
// under fresh-ID pressure the slice is never in age order: k new arrivals in
// front, the n-1-k oldest survivors behind them, the newest arrival last.
// How far the ranking's sort is from its best case depends on k, so probes
// walk k through a whole turnover.
func turnoverView(n, k int, size int64) (policy.View, time.Duration) {
	objs := saturatedResidents(n+k, size)
	order := make([]*object.Object, 0, n)
	order = append(order, objs[n-1:n+k-1]...)
	order = append(order, objs[k:n-1]...)
	order = append(order, objs[n+k-1])
	return policy.View{Capacity: int64(n) * size, Residents: order}, time.Duration(n+k) * time.Millisecond
}

const planPhases = 16 // points of a turnover the plan probes are timed at

func probePolicy() []metric {
	pol := policy.TemporalImportance{}
	// per calls at each of the phases, each timed alone; median over all.
	overPhases := func(n, per int, imp importance.Function) (ns float64, d policy.Decision, v policy.View) {
		var each []float64
		for p := 0; p < planPhases; p++ {
			var now time.Duration
			v, now = turnoverView(n, (2*p+1)*n/(2*planPhases), 128)
			in := freshObject(p, 128, now, imp)
			for i := 0; i < per; i++ {
				start := time.Now()
				d = pol.Plan(v, in, now)
				each = append(each, float64(time.Since(start)))
			}
		}
		return median(each), d, v
	}
	plan4k, d, v4k := overPhases(4096, 10, linearDay)
	planReject, _, _ := overPhases(4096, 10, constantLo)
	plan64k, _, _ := overPhases(65536, 1, linearDay)
	v256, now256 := turnoverView(256, 128, 1024)
	group := make([]*object.Object, batchWidth)
	for i := range group {
		group[i] = freshObject(10+i, 1024, now256, linearDay)
	}
	planGroup := timeCalls(15, 100, func() { sink = policy.PlanGroup(pol, v256, group, now256) })
	in := freshObject(0, 128, time.Duration(2*4096)*time.Millisecond, linearDay)
	allocs := allocsPerCall(50, func() { sink = pol.Plan(v4k, in, in.Arrival) })
	examined := 0.0
	if len(d.Victims) > 0 {
		examined = float64(len(v4k.Residents)) / float64(len(d.Victims))
	}
	return []metric{
		{"policy.plan_4k_us", plan4k / 1e3, "us", planPhases * 10},
		{"policy.plan_64k_us", plan64k / 1e3, "us", planPhases},
		{"policy.plan_reject_4k_us", planReject / 1e3, "us", planPhases * 10},
		{"policy.plangroup64_256_us", planGroup / 1e3, "us", 15 * 100},
		{"policy.plan_allocs_op", allocs, "count", 50},
		{"policy.examined_per_victim", examined, "count", 1},
	}
}

func probeStore() ([]metric, error) {
	u4k, now, err := saturatedUnit(4096, 128)
	if err != nil {
		return nil, err
	}
	i := 0
	// One whole turnover: the cost of a pressured put swings with the phase
	// (see turnoverView), and the median over all of them is what the
	// end-to-end median sees.
	pressured := timeEach(4096, func() {
		i++
		now += time.Millisecond
		if _, err := u4k.Put(freshObject(i, 128, now, linearDay), now); err != nil {
			panic(err) // constant, valid input: only a bug gets here
		}
	})
	// The same put with room to spare: what admission costs without ranking.
	roomy, err := store.New(1<<30, policy.TemporalImportance{})
	if err != nil {
		return nil, err
	}
	free := timeCalls(15, 2000, func() {
		i++
		now += time.Millisecond
		if _, err := roomy.Put(freshObject(i, 128, now, linearDay), now); err != nil {
			panic(err) // constant, valid input: only a bug gets here
		}
	})
	u256, now256, err := saturatedUnit(256, 1024)
	if err != nil {
		return nil, err
	}
	group := make([]*object.Object, batchWidth)
	putBatch := timeCalls(15, 50, func() {
		now256 += time.Millisecond
		for k := range group {
			i++
			group[k] = freshObject(i, 1024, now256, linearDay)
		}
		sink = u256.PutBatch(group, now256)
	})
	ids := make([]object.ID, 0, 4096)
	for _, o := range u4k.Residents() {
		ids = append(ids, o.ID)
	}
	g := 0
	get := timeCalls(20, 4000, func() {
		g++
		o, err := u4k.Get(ids[g%len(ids)])
		if err != nil {
			panic(err) // constant, valid input: only a bug gets here
		}
		sink = o
	})
	eng, err := store.NewEngine(store.EngineConfig{
		Shards: 4, Capacity: 4 * 4096 * 128, Policy: policy.TemporalImportance{},
	}, nil)
	if err != nil {
		return nil, err
	}
	placed := freshObject(0, 128, now, linearDay)
	place := timeCalls(20, 4000, func() {
		g++
		placed.ID = ids[g%len(ids)]
		sink = eng.Home(placed.ID) + eng.Place(placed, now)
	})
	return []metric{
		{"store.put_pressured_4k_us", pressured / 1e3, "us", 4096},
		{"store.put_free_us", free / 1e3, "us", 15 * 2000},
		{"store.putbatch64_256_us", putBatch / 1e3, "us", 15 * 50},
		{"store.get_ns", get, "ns", 20 * 4000},
		{"store.engine_place_ns", place, "ns", 20 * 4000},
	}, nil
}

// countingWriter counts the writes and bytes a WAL hands to its segment.
type countingWriter struct {
	w             io.Writer
	writes, bytes *int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	*c.writes++
	*c.bytes += int64(len(p))
	return c.w.Write(p)
}

func probeJournal(dir string) ([]metric, error) {
	var writes, bytes int64
	wal, err := journal.OpenWAL(filepath.Join(dir, "wal"),
		journal.WithWriteWrapper(func(_ uint64, w io.Writer) io.Writer {
			return countingWriter{w, &writes, &bytes}
		}))
	if err != nil {
		return nil, err
	}
	defer wal.Close()
	var fe firstErr
	i := 0
	// What one durable_put step journals: the put and the eviction it caused.
	putRec := func() journal.Record {
		i++
		return journal.Record{
			Kind: journal.KindPut, At: time.Duration(i) * time.Millisecond,
			ID: object.ID(fmt.Sprintf("dur/1/0/%d", i)), Size: 4096, Version: 1, Importance: linearDay,
		}
	}
	evictRec := func() journal.Record {
		return journal.Record{Kind: journal.KindEvict, At: time.Duration(i) * time.Millisecond,
			ID: object.ID(fmt.Sprintf("dur/1/0/%d", i-256))}
	}
	const rounds, per = 15, 400
	appendNS := timeCalls(rounds, per, func() {
		if err := wal.Append(putRec()); err != nil {
			fe.note(err)
		}
	})
	appends := int64(rounds * per)
	writesPerAppend := float64(writes) / float64(appends)
	// Bytes journalled per byte of user data on durable_put: one put record
	// and one evict record for every 4 KiB payload.
	writes, bytes = 0, 0
	for k := 0; k < 1000; k++ {
		if err := wal.Append(evictRec()); err != nil {
			return nil, err
		}
		if err := wal.Append(putRec()); err != nil {
			return nil, err
		}
	}
	bytesPerUserByte := float64(bytes) / (1000 * 4096)
	barrierNS := make([]float64, 30)
	for k := range barrierNS {
		if err := wal.Append(putRec()); err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := wal.Barrier(); err != nil {
			return nil, err
		}
		barrierNS[k] = float64(time.Since(start))
	}
	recs := make([]journal.Record, batchWidth)
	batchNS := timeCalls(15, 20, func() {
		for k := range recs {
			recs[k] = putRec()
		}
		if _, err := wal.AppendBatch(recs); err != nil {
			fe.note(err)
		}
		if err := wal.Sync(); err != nil {
			fe.note(err)
		}
	})
	if fe.err != nil {
		return nil, fe.err
	}
	return []metric{
		{"journal.append_us", appendNS / 1e3, "us", rounds * per},
		{"journal.barrier_us", median(barrierNS) / 1e3, "us", len(barrierNS)},
		{"journal.appendbatch64_us", batchNS / 1e3, "us", 15 * 20},
		{"journal.writes_per_append", writesPerAppend, "count", int(appends)},
		{"journal.bytes_per_user_byte", bytesPerUserByte, "ratio", 1000},
	}, nil
}

func probeBlob(dir string) ([]metric, error) {
	files, err := blob.NewFileStore(filepath.Join(dir, "blobs"))
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 4096)
	const n = 256
	var fe firstErr
	i := 0
	put := timeCalls(15, 100, func() {
		// Overwriting a ring of n names keeps the directory the size
		// durable_put's is.
		id := object.ID(fmt.Sprintf("blob/%d", i%n))
		i++
		fillPayload(payload, id)
		if err := files.Put(id, payload); err != nil {
			fe.note(err)
		}
	})
	get := timeCalls(15, 400, func() {
		i++
		b, err := files.Get(object.ID(fmt.Sprintf("blob/%d", i%n)))
		if err != nil {
			fe.note(err)
		}
		sink = b
	})
	if fe.err != nil {
		return nil, fe.err
	}
	return []metric{
		{"blob.file_put_us", put / 1e3, "us", 15 * 100},
		{"blob.file_get_us", get / 1e3, "us", 15 * 400},
	}, nil
}

func probeWire() []metric {
	payload := make([]byte, 128)
	put := &wire.Put{ID: "sat/1/0/123456", Importance: linearDay, Payload: payload}
	encodePut := timeCalls(20, 4000, func() {
		b, err := wire.Encode(put)
		if err != nil {
			panic(err) // constant, valid input: only a bug gets here
		}
		sink = b
	})
	putBody, _ := wire.Encode(put)
	decodePut := timeCalls(20, 4000, func() {
		m, err := wire.Decode(putBody)
		if err != nil {
			panic(err) // constant, valid input: only a bug gets here
		}
		sink = m
	})
	batch := &wire.Batch{}
	for i := 0; i < batchWidth; i++ {
		batch.Subs = append(batch.Subs, &wire.Put{
			ID: object.ID(fmt.Sprintf("bat/1/0/%d", 100000+i)), Importance: linearDay, Payload: make([]byte, 1024),
		})
	}
	encodeBatch := timeCalls(15, 200, func() {
		b, err := wire.Encode(batch)
		if err != nil {
			panic(err) // constant, valid input: only a bug gets here
		}
		sink = b
	})
	batchBody, _ := wire.Encode(batch)
	decodeBatch := timeCalls(15, 200, func() {
		m, err := wire.Decode(batchBody)
		if err != nil {
			panic(err) // constant, valid input: only a bug gets here
		}
		sink = m
	})
	allocs := allocsPerCall(1000, func() {
		b, _ := wire.Encode(put)
		m, _ := wire.Decode(b)
		sink = m
	})
	return []metric{
		{"wire.encode_put_ns", encodePut, "ns", 20 * 4000},
		{"wire.decode_put_ns", decodePut, "ns", 20 * 4000},
		{"wire.encode_batch64_us", encodeBatch / 1e3, "us", 15 * 200},
		{"wire.decode_batch64_us", decodeBatch / 1e3, "us", 15 * 200},
		{"wire.put_allocs_op", allocs, "count", 1000},
	}
}

// pipeListener hands the server one end of each net.Pipe the probe dials.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	select {
	case <-l.done:
	default:
		close(l.done)
	}
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// callLatencies times n single puts and n/16 64-wide batches on an
// unsaturated node and returns the medians in microseconds.
func callLatencies(ctx context.Context, cl *client.Client, tag string, n int) (putUS, batchUS float64, err error) {
	payload := make([]byte, 128)
	lat := make([]int64, 0, n)
	for i := 0; i < n+n/10; i++ {
		id := object.ID(fmt.Sprintf("%s/p/%d", tag, i))
		start := time.Now()
		if _, err := cl.PutCtx(ctx, client.PutRequest{ID: id, Importance: linearDay, Payload: payload}); err != nil {
			return 0, 0, err
		}
		if i >= n/10 { // the first tenth warms the connection up
			lat = append(lat, int64(time.Since(start)))
		}
	}
	slices.Sort(lat)
	putUS = percentile(lat, 0.5) / 1e3
	reqs := make([]client.PutRequest, batchWidth)
	slab := make([]byte, batchWidth*1024)
	lat = lat[:0]
	for i := 0; i < n/16+n/160; i++ {
		for k := range reqs {
			reqs[k] = client.PutRequest{
				ID: object.ID(fmt.Sprintf("%s/b/%d/%d", tag, i, k)), Importance: linearDay,
				Payload: slab[k*1024 : (k+1)*1024],
			}
		}
		start := time.Now()
		if _, err := cl.PutBatch(ctx, reqs); err != nil {
			return 0, 0, err
		}
		if i >= n/160 {
			lat = append(lat, int64(time.Since(start)))
		}
	}
	slices.Sort(lat)
	batchUS = percentile(lat, 0.5) / 1e3
	return putUS, batchUS, nil
}

const probeCalls = 4000 // single puts per round-trip probe

// probeServerPipe measures dispatch plus admission without the kernel: an
// in-process server behind net.Pipe, driven through the real client.
func probeServerPipe(ctx context.Context) ([]metric, error) {
	srv, err := server.New(server.EngineConfig{Capacity: 1 << 30, Policy: policy.TemporalImportance{}})
	if err != nil {
		return nil, err
	}
	l := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	sctx, cancel := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(sctx, l) }()
	near, far := net.Pipe()
	l.conns <- far
	cl := client.NewClient(near)
	putUS, batchUS, err := callLatencies(ctx, cl, "pipe", probeCalls)
	cl.Close()
	cancel()
	l.Close()
	if serr := <-served; err == nil && serr != nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	return []metric{
		{"server.pipe_put_us", putUS, "us", probeCalls},
		{"server.pipe_batch64_us", batchUS, "us", probeCalls / 16},
	}, nil
}

// probeCheckpoint times Server.Checkpoint at 4096 residents on the data
// filesystem.
func probeCheckpoint(ctx context.Context, dir string) ([]metric, error) {
	data := filepath.Join(dir, "ckpt")
	wals, err := server.OpenShardWALs(data, 1)
	if err != nil {
		return nil, err
	}
	defer wals[0].Close()
	srv, err := server.New(server.EngineConfig{Capacity: 4096 * 128, Policy: policy.TemporalImportance{}},
		server.WithWALs(wals))
	if err != nil {
		return nil, err
	}
	now := time.Duration(0)
	for i := 0; i < 4096; i++ {
		now += time.Millisecond
		if _, err := srv.Engine().Shard(0).Put(freshObject(i, 128, now, linearDay), now); err != nil {
			return nil, err
		}
	}
	ms := make([]float64, 9)
	for k := range ms {
		// A checkpoint with nothing journalled since the last is a no-op.
		if err := wals[0].Append(journal.Record{Kind: journal.KindDelete, At: now, ID: "none"}); err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := srv.Checkpoint(); err != nil {
			return nil, err
		}
		ms[k] = float64(time.Since(start)) / 1e6
	}
	return []metric{{"server.checkpoint_ms", median(ms), "ms", len(ms)}}, nil
}

// probeDaemon measures against real spawned daemons: the unsaturated round
// trip over TCP loopback (the floor of every put latency) and recovery of
// the durable workload's prefilled directory after a SIGKILL.
func (h *harness) probeDaemon(ctx context.Context) ([]metric, error) {
	d, err := h.start(daemonConfig{shards: 1, capacity: 1 << 30})
	if err != nil {
		return nil, err
	}
	cl, err := client.Connect(d.addr, client.WithMaxBatchSubs(batchWidth))
	if err != nil {
		d.stop()
		return nil, err
	}
	putUS, batchUS, err := callLatencies(ctx, cl, "tcp", probeCalls)
	cl.Close()
	d.stop()
	if err != nil {
		return nil, err
	}

	// Recovery: set the durable workload up, which crashes and restarts the
	// node on its prefilled directory, and read how long the restart took
	// to answer.
	dur, err := findSpec("durable_put")
	if err != nil {
		return nil, err
	}
	se, _, err := h.setUp(ctx, dur, 0)
	if err != nil {
		return nil, err
	}
	restore := se.d.readyIn
	se.close(false)
	if len(se.failures) > 0 {
		return nil, fmt.Errorf("restore probe: %v", se.failures)
	}
	return []metric{
		{"client.tcp_put_us", putUS, "us", probeCalls},
		{"client.tcp_batch64_us", batchUS, "us", probeCalls / 16},
		{"server.restore_ms", float64(restore) / 1e6, "ms", 1},
	}, nil
}

// runLayers runs every layer probe and returns the metrics sorted by name.
func (h *harness) runLayers() ([]metric, error) {
	ctx := context.Background()
	dir, err := os.MkdirTemp(h.dataRoot, "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	out := probeImportance()
	out = append(out, probePolicy()...)
	out = append(out, probeWire()...)
	for _, probe := range []func() ([]metric, error){
		probeStore,
		func() ([]metric, error) { return probeJournal(dir) },
		func() ([]metric, error) { return probeBlob(dir) },
		func() ([]metric, error) { return probeServerPipe(ctx) },
		func() ([]metric, error) { return probeCheckpoint(ctx, dir) },
		func() ([]metric, error) { return h.probeDaemon(ctx) },
	} {
		ms, err := probe()
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
