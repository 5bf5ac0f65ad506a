package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"besteffs/internal/client"
	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// Every lifetime is day-scale, so no admission decision depends on how fast
// a run went: over a one-minute run a Linear{1, day} object loses less than
// a thousandth of its importance and the rank order is arrival order.
const day = 24 * time.Hour

var (
	linearDay  = importance.Linear{Start: 1, Expire: day}
	twoStepDay = importance.TwoStep{Plateau: 0.6, Persist: day, Wane: day}
	constantLo = importance.Constant{Level: 0.2}
)

const (
	segments   = 10  // the window is cut into this many equal segments; client.put_ops_s is their median rate
	batchWidth = 64  // sub-puts per PutBatch
	batchGets  = 8   // gets after each batch
	recentCap  = 512 // mixed_sharded: own admissions a connection may read or delete
)

// spec is one workload: the node it runs against and the closed-loop
// stream each connection drives.
type spec struct {
	name     string
	shards   int
	capacity int64
	objSize  int
	durable  bool
	conns    int
	// prefill is the number of objects put before warm-up; it is at least
	// the resident count, so the node is saturated when warm-up starts.
	prefill int
	// warmup is the number of iterations of the workload's own stream each
	// connection runs before the window. An op count, not a time, so that
	// setup_s measures the program.
	warmup int
	// readWindow is how many of the newest IDs a get may target.
	readWindow int
	// strict marks streams of fresh Linear{1,day} puts on one shard, where
	// every put must be admitted and preempt exactly the oldest resident
	// once the node is full.
	strict bool
	step   func(*worker)
}

// residents is how many objects fit.
func (s *spec) residents() int { return int(s.capacity) / s.objSize }

// workloads lists the four in the order they run. The durable prefill is
// long enough that WAL replay, not process start, dominates recovery.
func workloads() []*spec {
	return []*spec{
		{
			name:   "saturated_put",
			shards: 1, capacity: 4096 * 128, objSize: 128, conns: 1,
			prefill: 4096, warmup: 4096, readWindow: 1024, strict: true,
			step: (*worker).stepPressuredPut,
		},
		{
			name:   "batch_pipeline",
			shards: 1, capacity: 256 * 1024, objSize: 1024, conns: 1,
			prefill: 256, warmup: 1536, readWindow: batchWidth, strict: true,
			step: (*worker).stepBatch,
		},
		{
			name:   "mixed_sharded",
			shards: 4, capacity: 4 * 4096 * 128, objSize: 128, conns: 2,
			// A quarter above capacity, so hash placement saturates every shard.
			prefill: 5 * 4096, warmup: 3072, readWindow: recentCap,
			step: (*worker).stepMixed,
		},
		{
			name:   "durable_put",
			shards: 1, capacity: 256 * 4096, objSize: 4096, conns: 1, durable: true,
			prefill: 20000, warmup: 2000, readWindow: 128, strict: true,
			step: (*worker).stepPressuredPut,
		},
	}
}

// findSpec returns the named workload.
func findSpec(name string) (*spec, error) {
	for _, s := range workloads() {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opKind is what one step of mixed_sharded does.
type opKind uint8

const (
	opPut opKind = iota
	opGet
	opDelete
)

// mixedOp is one drawn step of the mixed stream. It is a pure function of
// the seed: which resident a get or delete hits is resolved from pick
// against what the connection knows to be resident at that moment.
type mixedOp struct {
	kind opKind
	imp  importance.Function // puts only
	pick int                 // gets and deletes: index into the recent ring, modulo its length
}

// drawMixed draws the next step: 60% put, 30% get, 10% delete; puts are 50%
// Linear{1,day}, 30% TwoStep with a 0.6 plateau, 20% Constant{0.2}.
func drawMixed(rng *rand.Rand) mixedOp {
	r := rng.Intn(100)
	switch {
	case r < 60:
		op := mixedOp{kind: opPut}
		switch i := rng.Intn(100); {
		case i < 50:
			op.imp = linearDay
		case i < 80:
			op.imp = twoStepDay
		default:
			op.imp = constantLo
		}
		return op
	case r < 90:
		return mixedOp{kind: opGet, pick: rng.Intn(recentCap)}
	default:
		return mixedOp{kind: opDelete, pick: rng.Intn(recentCap)}
	}
}

// streamRNG seeds one connection's stream.
func streamRNG(seed int64, conn int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(conn)))
}

// idSeq mints one connection's object IDs: prefix plus a running number.
type idSeq struct {
	prefix string
	next   int
	buf    []byte
}

func newIDSeq(workload string, seed int64, conn int) idSeq {
	return idSeq{prefix: fmt.Sprintf("%s/%x/%d/", workload[:3], seed, conn)}
}

// at returns the n-th ID of the sequence.
func (s *idSeq) at(n int) object.ID {
	s.buf = append(s.buf[:0], s.prefix...)
	s.buf = strconv.AppendInt(s.buf, int64(n), 10)
	return object.ID(s.buf)
}

// fresh mints the next unused ID.
func (s *idSeq) fresh() object.ID {
	id := s.at(s.next)
	s.next++
	return id
}

// fillPayload writes the payload that belongs to id into dst: a splitmix64
// stream seeded by the ID's hash, so a get can be checked byte for byte
// without the harness remembering what it sent.
func fillPayload(dst []byte, id object.ID) {
	h := fnv.New64a()
	h.Write([]byte(id))
	x := h.Sum64()
	for i := 0; i < len(dst); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		for j := 0; j < 8 && i+j < len(dst); j++ {
			dst[i+j] = byte(z >> (8 * j))
		}
	}
}

// idRing holds the newest IDs a connection admitted itself and may read or
// delete: far fewer than a shard holds, so none can have become the oldest
// resident -- the next victim -- while it is still in the ring.
type idRing struct {
	ids  [recentCap]object.ID
	head int
	n    int
}

func (r *idRing) push(id object.ID) {
	if r.n == recentCap {
		r.head = (r.head + 1) % recentCap
		r.n--
	}
	r.ids[(r.head+r.n)%recentCap] = id
	r.n++
}

// at returns the i-th oldest entry (i taken modulo the length).
func (r *idRing) at(i int) object.ID { return r.ids[(r.head+i%r.n)%recentCap] }

// take removes and returns the i-th oldest entry, moving the newest into
// its place.
func (r *idRing) take(i int) object.ID {
	slot := (r.head + i%r.n) % recentCap
	last := (r.head + r.n - 1) % recentCap
	id := r.ids[slot]
	r.ids[slot] = r.ids[last]
	r.n--
	return id
}

// sample is one timed put call: when it ended, as nanoseconds into the
// window, and how long it took.
type sample struct {
	end, lat int64
}

// recorder collects what one connection observed. attempted and failed run
// over the whole life of the connection; everything else restarts with each
// window.
type recorder struct {
	attempted, failed int64
	failures          []string // the first few, for the report

	start    time.Time
	putLat   []sample // one per put call (a batch is one call), in time order
	getLat   []int64  // ns
	puts     int64    // completed puts; a sub-put of a batch counts as one
	ops      int64    // completed operations of every kind
	admitted int64
	rejected int64
	evicted  int64 // victims reported in put results
	deleted  int64
	spans    *spanLog // nil unless this window is traced
}

// beginWindow resets the per-window state. Latency slices keep their
// backing arrays.
func (r *recorder) beginWindow(start time.Time, spans *spanLog) {
	*r = recorder{
		attempted: r.attempted, failed: r.failed, failures: r.failures,
		start:  start,
		putLat: r.putLat[:0], getLat: r.getLat[:0], spans: spans,
	}
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// timedPut builds the sample of a put call that ran from t0 to t1.
func (r *recorder) timedPut(t0, t1 time.Time) sample {
	return sample{end: int64(t1.Sub(r.start)), lat: int64(t1.Sub(t0))}
}

// span records one step of the harness when the window is traced.
func (r *recorder) span(name spanName, op int64, start, end time.Time) {
	if r.spans != nil {
		r.spans.add(name, op, start, end)
	}
}

// worker is one connection and the state of its stream.
type worker struct {
	spec     *spec
	cl       *client.Client
	ctx      context.Context
	rng      *rand.Rand
	seq      idSeq
	rec      recorder
	iter     int64
	recent   idRing   // mixed_sharded only
	payloads [][]byte // scratch: one buffer per sub-put
	expect   []byte   // scratch: the payload a get should return
	batch    []client.PutRequest
}

func newWorker(ctx context.Context, s *spec, cl *client.Client, seed int64, conn int) *worker {
	w := &worker{
		spec: s, cl: cl, ctx: ctx,
		rng:    streamRNG(seed, conn),
		seq:    newIDSeq(s.name, seed, conn),
		expect: make([]byte, s.objSize),
		batch:  make([]client.PutRequest, batchWidth),
	}
	slab := make([]byte, batchWidth*s.objSize)
	for i := 0; i < batchWidth; i++ {
		w.payloads = append(w.payloads, slab[i*s.objSize:(i+1)*s.objSize])
	}
	return w
}

// put stores one object and returns the verdict; ok is false when the call
// itself failed (and was counted).
func (w *worker) put(id object.ID, imp importance.Function) (res client.PutResult, ok bool) {
	op := w.rec.attempted
	w.rec.attempted++
	t0 := time.Now()
	payload := w.payloads[0]
	fillPayload(payload, id)
	t1 := time.Now()
	res, err := w.cl.PutCtx(w.ctx, client.PutRequest{ID: id, Importance: imp, Payload: payload})
	t2 := time.Now()
	w.rec.span(spanGen, op, t0, t1)
	w.rec.span(spanPut, op, t1, t2)
	if err != nil {
		w.rec.fail("put %s: %v", id, err)
		return res, false
	}
	w.rec.putLat = append(w.rec.putLat, w.rec.timedPut(t1, t2))
	w.rec.puts++
	w.rec.ops++
	w.tally(res)
	return res, true
}

// tally counts one verdict.
func (w *worker) tally(res client.PutResult) {
	if res.Admitted {
		w.rec.admitted++
	} else {
		w.rec.rejected++
	}
	w.rec.evicted += int64(len(res.Evicted))
}

// get reads an object the stream knows to be resident and checks every byte.
func (w *worker) get(id object.ID) {
	op := w.rec.attempted
	w.rec.attempted++
	t0 := time.Now()
	obj, err := w.cl.GetCtx(w.ctx, id)
	t1 := time.Now()
	w.rec.span(spanGet, op, t0, t1)
	if err != nil {
		w.rec.fail("get %s: %v", id, err)
		return
	}
	fillPayload(w.expect, id)
	if !bytes.Equal(obj.Payload, w.expect) {
		w.rec.fail("get %s: payload differs from what was put", id)
	}
	w.rec.span(spanVerify, op, t1, time.Now())
	w.rec.getLat = append(w.rec.getLat, int64(t1.Sub(t0)))
	w.rec.ops++
}

// del deletes an object the stream knows to be resident.
func (w *worker) del(id object.ID) {
	op := w.rec.attempted
	w.rec.attempted++
	t0 := time.Now()
	err := w.cl.DeleteCtx(w.ctx, id)
	t1 := time.Now()
	w.rec.span(spanDelete, op, t0, t1)
	if err != nil {
		w.rec.fail("delete %s: %v", id, err)
		return
	}
	w.rec.deleted++
	w.rec.ops++
}

// wantEvictions is how many victims a fresh Linear{1,day} put must report:
// one once the node is full, none before.
func (w *worker) wantEvictions(putsBefore int) int {
	if putsBefore >= w.spec.residents() {
		return 1
	}
	return 0
}

// stepPressuredPut is saturated_put and durable_put: a fresh Linear{1,day}
// put outranks every resident and preempts exactly the oldest; every tenth
// step reads one of the newest IDs instead.
func (w *worker) stepPressuredPut() {
	w.iter++
	if w.iter%10 == 0 {
		w.get(w.seq.at(w.seq.next - 1 - w.rng.Intn(w.spec.readWindow)))
		return
	}
	before := w.seq.next
	id := w.seq.fresh()
	res, ok := w.put(id, linearDay)
	if ok && (!res.Admitted || len(res.Evicted) != w.wantEvictions(before)) {
		w.rec.fail("put %s: admitted=%v evicted=%d, want admitted with %d victims",
			id, res.Admitted, len(res.Evicted), w.wantEvictions(before))
	}
}

// putBatch stores batchWidth fresh Linear{1,day} objects in one BATCH frame.
func (w *worker) putBatch() {
	op := w.rec.attempted
	w.rec.attempted += batchWidth
	before := w.seq.next
	t0 := time.Now()
	for i := range w.batch {
		id := w.seq.fresh()
		fillPayload(w.payloads[i], id)
		w.batch[i] = client.PutRequest{ID: id, Importance: linearDay, Payload: w.payloads[i]}
	}
	t1 := time.Now()
	outs, err := w.cl.PutBatch(w.ctx, w.batch)
	t2 := time.Now()
	w.rec.span(spanGen, op, t0, t1)
	w.rec.span(spanPutBatch, op, t1, t2)
	if err != nil {
		w.rec.failed += batchWidth - 1
		w.rec.fail("putbatch at %s: %v", w.batch[0].ID, err)
		return
	}
	w.rec.putLat = append(w.rec.putLat, w.rec.timedPut(t1, t2))
	w.rec.puts += batchWidth
	w.rec.ops += batchWidth
	for i, o := range outs {
		want := w.wantEvictions(before + i)
		switch {
		case o.Err != nil:
			w.rec.fail("putbatch sub-put %s: %v", w.batch[i].ID, o.Err)
		case w.spec.strict && (!o.Result.Admitted || len(o.Result.Evicted) != want):
			w.rec.fail("putbatch sub-put %s: admitted=%v evicted=%d, want admitted with %d victims",
				w.batch[i].ID, o.Result.Admitted, len(o.Result.Evicted), want)
		}
		if o.Err == nil {
			w.tally(o.Result)
		}
	}
}

// stepBatch is batch_pipeline: one 64-wide batch (evicting the 64 oldest),
// then eight single gets of IDs from that batch.
func (w *worker) stepBatch() {
	w.putBatch()
	for i := 0; i < batchGets; i++ {
		w.get(w.seq.at(w.seq.next - 1 - w.rng.Intn(w.spec.readWindow)))
	}
}

// stepMixed is mixed_sharded.
func (w *worker) stepMixed() {
	op := drawMixed(w.rng)
	if op.kind != opPut && w.recent.n == 0 {
		// Nothing known resident yet; only possible before the first admission.
		op = mixedOp{kind: opPut, imp: linearDay}
	}
	switch op.kind {
	case opPut:
		id := w.seq.fresh()
		res, ok := w.put(id, op.imp)
		if ok && res.Admitted && op.imp == importance.Function(linearDay) {
			w.recent.push(id)
		}
	case opGet:
		w.get(w.recent.at(op.pick))
	case opDelete:
		w.del(w.recent.take(op.pick))
	}
}

// listSorted returns the node's resident IDs in ascending order.
func listSorted(ctx context.Context, cl *client.Client) ([]object.ID, error) {
	ids, err := cl.ListCtx(ctx)
	if err != nil {
		return nil, err
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// step runs one iteration of the worker's stream.
func (w *worker) step() { w.spec.step(w) }
