package main

import (
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"besteffs/internal/object"
)

func TestPercentile(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(i + 1) // 1..100
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 0.5); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

// The reported tail is the highest percentile that still has ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {19, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999}, {5000000, 0.9999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// put_ops_s is the median of the segment rates: one stalled segment does not
// move it, and calls that ended after the window closed count nowhere.
func TestSegmentMedianRate(t *testing.T) {
	ms := int64(time.Millisecond)
	var puts []sample
	for seg := 0; seg < 4; seg++ { // four segments of 100 ms
		n := 10
		if seg == 2 {
			n = 1 // the stall
		}
		for i := 0; i < n; i++ {
			puts = append(puts, sample{end: int64(seg)*100*ms + int64(i)*ms, lat: 1})
		}
	}
	puts = append(puts, sample{end: 400 * ms, lat: 1}, sample{end: 405 * ms, lat: 1}) // after the window
	rates := segmentRates(puts, 400*time.Millisecond, 4, 64)
	if want := []float64{6400, 6400, 640, 6400}; !slices.Equal(rates, want) {
		t.Fatalf("segment rates = %v, want %v", rates, want)
	}
	if got := (windowStats{segRates: rates}).putRate(); got != 6400 {
		t.Errorf("put rate = %v, want the median segment's 6400", got)
	}
	if got := segmentRates(nil, time.Second, 10, 1); len(got) != 10 || got[0] != 0 {
		t.Errorf("no puts gave %v, want ten zero rates", got)
	}
}

func TestPlaceCPUs(t *testing.T) {
	var two, one, eight cpuSet
	two.add(0)
	two.add(1)
	one.add(5)
	for c := 0; c < 8; c++ {
		eight.add(c)
	}
	for _, c := range []struct {
		allowed         cpuSet
		wantGen, wantDm []int
	}{
		{two, []int{1}, []int{1}},
		{one, []int{5}, []int{5}},
		{eight, []int{1}, []int{1, 2, 3, 4, 5, 6, 7}},
	} {
		gen, dm := placeCPUs(c.allowed)
		if !slices.Equal(gen.list(), c.wantGen) || !slices.Equal(dm.list(), c.wantDm) {
			t.Errorf("placeCPUs(%v) = %v, %v, want %v, %v", c.allowed.list(), gen.list(), dm.list(), c.wantGen, c.wantDm)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which the acceptance check uses: for 1..10 it gives [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v, want 1, 4", q1, q3)
	}
	if got, want := spreadShare([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}), 5.5/5.5; got != want {
		t.Errorf("spreadShare(1..10) = %v, want %v", got, want)
	}
}

func TestDisagreement(t *testing.T) {
	if got := disagreement([]float64{100, 104, 98}); math.Abs(got-6.0/98) > 1e-12 {
		t.Errorf("disagreement = %v, want %v", got, 6.0/98)
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	stat := "4242 (best (effs) d) S 1 4242 4242 0 -1 4194560 1234 0 0 0 1500 250 0 0 20 0 7 0 123456 1000000 2000 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseProcStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 17.5; got != want { // (1500 + 250) ticks at 100 Hz
		t.Errorf("cpu seconds = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 x S"} {
		if _, err := parseProcStatCPU(bad); err == nil {
			t.Errorf("parseProcStatCPU(%q) succeeded", bad)
		}
	}
}

func TestParseSchedstatRuntime(t *testing.T) {
	got, err := parseSchedstatRuntime("837500123 208113 42\n")
	if err != nil || got != 837500123 {
		t.Errorf("runtime = %v, %v, want 837500123", got, err)
	}
	for _, bad := range []string{"", "1 2", "x 2 3"} {
		if _, err := parseSchedstatRuntime(bad); err == nil {
			t.Errorf("parseSchedstatRuntime(%q) succeeded", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tbesteffsd\nVmPeak:\t 1234567 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n"
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Errorf("VmHWM = %v MiB, want 20", got)
	}
	if _, err := parseVmHWM("Name:\tx\nVmRSS:\t 1 kB\n"); err == nil {
		t.Error("missing VmHWM line accepted")
	}
	if _, err := parseVmHWM("VmHWM:\t 12 MB\n"); err == nil {
		t.Error("VmHWM in an unexpected unit accepted")
	}
}

func TestParseServiceTimes(t *testing.T) {
	text := `# HELP besteffs_op_latency_seconds server-side request latency
besteffs_op_latency_seconds_bucket{op="put",le="0.001"} 5
besteffs_op_latency_seconds_sum{op="put"} 0.25
besteffs_op_latency_seconds_count{op="put"} 500
besteffs_op_latency_seconds_sum{op="get"} 0.01
besteffs_op_latency_seconds_count{op="get"} 100
besteffs_requests_total{op="put"} 500
`
	got := parseServiceTimes(text)
	if got["put"] != (opLatency{sum: 0.25, count: 500}) || got["get"] != (opLatency{sum: 0.01, count: 100}) {
		t.Errorf("parsed %+v", got)
	}
	if len(got) != 2 {
		t.Errorf("parsed %d ops, want 2", len(got))
	}
}

// The same seed must give the same inputs: op stream, IDs and payloads.
func TestSeedDeterminesStream(t *testing.T) {
	draw := func(seed int64, conn int) []mixedOp {
		rng := streamRNG(seed, conn)
		ops := make([]mixedOp, 5000)
		for i := range ops {
			ops[i] = drawMixed(rng)
		}
		return ops
	}
	a, b := draw(7, 0), draw(7, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d differs between two streams of one seed: %+v vs %+v", i, a[i], b[i])
		}
	}
	differ := func(x, y []mixedOp) bool {
		for i := range x {
			if x[i] != y[i] {
				return true
			}
		}
		return false
	}
	if !differ(a, draw(8, 0)) {
		t.Error("seeds 7 and 8 drew the same stream")
	}
	if !differ(a, draw(7, 1)) {
		t.Error("connections 0 and 1 of one seed drew the same stream")
	}
	// The mix is the one the workload states.
	var puts, gets, dels, linear int
	for _, op := range a {
		switch op.kind {
		case opPut:
			puts++
			if op.imp == linearDay {
				linear++
			}
		case opGet:
			gets++
		case opDelete:
			dels++
		}
	}
	near := func(got int, share float64) bool {
		return math.Abs(float64(got)/float64(len(a))-share) < 0.03
	}
	if !near(puts, 0.6) || !near(gets, 0.3) || !near(dels, 0.1) || !near(linear, 0.3) {
		t.Errorf("mix: %d puts (%d linear), %d gets, %d deletes of %d", puts, linear, gets, dels, len(a))
	}

	s1, s2 := newIDSeq("saturated_put", 7, 0), newIDSeq("saturated_put", 7, 0)
	other := newIDSeq("saturated_put", 8, 0)
	p1, p2 := make([]byte, 128), make([]byte, 128)
	for i := 0; i < 100; i++ {
		id1, id2 := s1.fresh(), s2.fresh()
		if id1 != id2 {
			t.Fatalf("ID %d differs: %s vs %s", i, id1, id2)
		}
		if id1 == other.fresh() {
			t.Fatalf("seeds 7 and 8 share ID %s", id1)
		}
		fillPayload(p1, id1)
		fillPayload(p2, id2)
		if string(p1) != string(p2) {
			t.Fatalf("payload of %s is not a function of the ID", id1)
		}
	}
	fillPayload(p2, "some/other/id")
	if string(p1) == string(p2) {
		t.Error("two IDs share a payload")
	}
	if s1.at(3) != "sat/7/0/3" {
		t.Errorf("ID format changed: %s", s1.at(3))
	}
}

func TestIDRing(t *testing.T) {
	var r idRing
	for i := 0; i < recentCap+10; i++ {
		r.push(object.ID(string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))))
	}
	if r.n != recentCap {
		t.Fatalf("ring holds %d, want %d", r.n, recentCap)
	}
	seen := map[object.ID]bool{}
	for i := 0; i < r.n; i++ {
		seen[r.at(i)] = true
	}
	if len(seen) != recentCap {
		t.Fatalf("ring has %d distinct IDs, want %d", len(seen), recentCap)
	}
	took := r.take(5)
	if r.n != recentCap-1 {
		t.Fatalf("take left %d entries", r.n)
	}
	for i := 0; i < r.n; i++ {
		if r.at(i) == took {
			t.Fatalf("%s still in the ring after take", took)
		}
	}
}

// TestSmoke runs every workload end to end with one-second windows. It
// spawns daemons and takes about twenty seconds, so it only runs on request.
func TestSmoke(t *testing.T) {
	if os.Getenv("BESTEFFS_BENCH_SMOKE") != "1" {
		t.Skip("set BESTEFFS_BENCH_SMOKE=1 to run the end-to-end smoke test")
	}
	h, err := newHarness()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	for _, s := range workloads() {
		res, err := h.runWorkload(s, runOptions{seed: 1, window: time.Second})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", s.name, res.failed, res.attempted, res.failures)
		}
		if len(res.endToEnd) != 2 || len(res.perLayer) != 8 {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want 2 and 8", s.name, len(res.endToEnd), len(res.perLayer))
		}
		for _, m := range append(res.endToEnd, res.perLayer[:6]...) {
			if !(m.Value > 0) {
				t.Errorf("%s/%s = %v, want a positive measurement", s.name, m.Name, m.Value)
			}
		}
	}
}
