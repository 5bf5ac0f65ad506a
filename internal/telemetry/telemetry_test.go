package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanRingRecordAndTrace(t *testing.T) {
	r := NewSpanRing(8)
	base := time.Now()
	for i := 0; i < 5; i++ {
		trace := "t1"
		if i%2 == 1 {
			trace = "t2"
		}
		// Recorded newest first: snapshots order by start, not arrival.
		r.Record(Span{Trace: trace, ID: uint64(i + 1), Name: "put",
			Start: base.Add(time.Duration(5-i) * time.Millisecond)})
	}
	if got := len(r.Snapshot()); got != 5 {
		t.Fatalf("Snapshot: got %d spans, want 5", got)
	}
	t1 := r.Select(func(sp *Span) bool { return sp.Trace == "t1" })
	if len(t1) != 3 {
		t.Fatalf("Select(t1): got %d, want 3", len(t1))
	}
	for i := 1; i < len(t1); i++ {
		if t1[i].Start.Before(t1[i-1].Start) {
			t.Fatalf("Select not ordered by start")
		}
	}
}

func TestSpanRingWraps(t *testing.T) {
	r := NewSpanRing(4)
	for i := 0; i < 10; i++ {
		r.Record(Span{Trace: "t", ID: uint64(i + 1)})
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("ring of 4 holds %d after 10 records", len(got))
	}
	if r.Len() != 10 {
		t.Fatalf("Len: got %d, want 10", r.Len())
	}
	for _, sp := range got {
		if sp.ID <= 6 {
			t.Fatalf("old span %d survived the wrap", sp.ID)
		}
	}
}

func TestSpanRingConcurrent(t *testing.T) {
	r := NewSpanRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Span{Trace: "t", ID: NewSpanID()})
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if r.Len() != 4000 {
		t.Fatalf("Len: got %d, want 4000", r.Len())
	}
}

// TestRingWraps: a ring holds the most recent records up to its size,
// oldest first, while Len counts every record ever made.
func TestRingWraps(t *testing.T) {
	r := NewSampleRing(3)
	if r.Len() != 0 || len(r.Snapshot()) != 0 {
		t.Fatalf("fresh ring: len=%d samples=%+v", r.Len(), r.Snapshot())
	}
	r.Record(DensitySample{At: 1})
	r.Record(DensitySample{At: 2})
	if got := r.Snapshot(); len(got) != 2 || got[0].At != 1 || got[1].At != 2 {
		t.Fatalf("partial ring: %+v", got)
	}
	for i := 3; i <= 5; i++ {
		r.Record(DensitySample{At: time.Duration(i), Density: float64(i) / 10})
	}
	if r.Len() != 5 {
		t.Errorf("Len = %d, want 5", r.Len())
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("ring of 3 holds %d after 5 records", len(got))
	}
	// Oldest first: samples 3, 4, 5 survive the wrap.
	for i, want := range []time.Duration{3, 4, 5} {
		if got[i].At != want || got[i].Density != float64(want)/10 {
			t.Errorf("sample %d = %+v, want at %v (all: %+v)", i, got[i], want, got)
		}
	}
}

// TestRingConcurrent runs eight writers against readers under the race
// detector: nothing is lost from the count, and every snapshot is full
// once the ring has wrapped, and in order.
func TestRingConcurrent(t *testing.T) {
	r := NewSampleRing(64)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := r.Snapshot()
				for i := 1; i < len(got); i++ {
					if got[i].At < got[i-1].At {
						t.Errorf("snapshot out of order at %d", i)
						return
					}
				}
				r.Len()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				r.Record(DensitySample{At: time.Duration(g*500 + i), Used: int64(g)})
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if r.Len() != 4000 {
		t.Fatalf("Len: got %d, want 4000", r.Len())
	}
	if got := len(r.Snapshot()); got != 64 {
		t.Fatalf("Snapshot holds %d, want the ring's 64", got)
	}
}

// TestNilRingAndRecorderAreSafe: a nil span ring, recorder or sample ring
// drops records and holds nothing.
func TestNilRingAndRecorderAreSafe(t *testing.T) {
	var spans *Ring[Span]
	spans.Record(Span{})
	if spans.Snapshot() != nil || spans.Select(func(*Span) bool { return true }) != nil || spans.Len() != 0 {
		t.Fatalf("nil span ring not inert")
	}
	var rec *Ring[Event]
	rec.Record(Event{})
	if rec.Snapshot() != nil || rec.Len() != 0 {
		t.Fatalf("nil recorder not inert")
	}
	var sb strings.Builder
	rec.Dump(&sb)
	var samples *Ring[DensitySample]
	samples.Record(DensitySample{At: 1})
	if samples.Snapshot() != nil || samples.Len() != 0 {
		t.Fatalf("nil sample ring not inert")
	}
	samples.Dump(&sb)
	if sb.Len() != 0 {
		t.Fatalf("nil rings dumped %q", sb.String())
	}
}

func TestRecorderSeqAndDump(t *testing.T) {
	rec := NewRecorder(8)
	rec.Record(Event{Kind: EventAdmit, ID: "a", Importance: 0.9, Boundary: 0.2})
	rec.Record(Event{Kind: EventEvict, ID: "b"})
	rec.Record(Event{Kind: EventMemberDown, Peer: "10.0.0.2:7459"})
	evs := rec.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Wall.IsZero() {
			t.Fatalf("event %d missing wall time", i)
		}
	}
	var sb strings.Builder
	rec.Dump(&sb)
	out := sb.String()
	for _, want := range []string{"admit", "evict", "member-down", "id=a", "peer=10.0.0.2:7459",
		evs[0].Wall.Format(time.RFC3339Nano)} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestRecorderTailIsSnapshotsEnd: Tail(n) holds the same events as the last
// n of a Snapshot, in the same order, while the ring fills, once it has
// wrapped, for n past what it holds and for n = 0; a nil ring's tail is
// empty.
func TestRecorderTailIsSnapshotsEnd(t *testing.T) {
	const size = 8
	rec := NewRecorder(size)
	at := time.Date(2007, 6, 25, 9, 0, 0, 0, time.UTC)
	for i := range 3*size + 3 {
		rec.Record(Event{Kind: EventAdmit, ID: string(rune('a' + i%26)), Wall: at})
		snap := rec.Snapshot()
		for _, n := range []int{0, 1, 3, size - 1, size, size + 5} {
			got := rec.Tail(n)
			want := snap[len(snap)-min(n, len(snap)):]
			if len(got) != len(want) {
				t.Fatalf("after %d records Tail(%d) holds %d events, want %d", i+1, n, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("after %d records Tail(%d)[%d] = %+v, want %+v", i+1, n, k, got[k], want[k])
				}
			}
		}
	}
	var nilRec *Ring[Event]
	if got := nilRec.Tail(4); len(got) != 0 {
		t.Fatalf("a nil ring's tail holds %d events", len(got))
	}
}

// TestRecorderKeepsCallerWall: an event the caller stamped keeps its Wall;
// Record stamps only a zero one, and numbers both in order.
func TestRecorderKeepsCallerWall(t *testing.T) {
	rec := NewRecorder(4)
	at := time.Date(2007, 6, 25, 9, 0, 0, 0, time.UTC)
	rec.Record(Event{Kind: EventAdmit, ID: "a", Wall: at})
	rec.Record(Event{Kind: EventEvict, ID: "b"})
	evs := rec.Snapshot()
	if len(evs) != 2 || !evs[0].Wall.Equal(at) || evs[1].Wall.IsZero() || evs[1].Wall.Equal(at) {
		t.Fatalf("recorded %+v", evs)
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("Seq %d, %d; want 0, 1", evs[0].Seq, evs[1].Seq)
	}
}

// raceEnabled is set under -race (race_test.go), whose instrumentation
// allocates on its own account.
var raceEnabled bool

// TestRecordAllocatesNothing: once a ring has grown to its size, recording
// copies the record into a slot and allocates nothing, stamped or not.
func TestRecordAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rec := NewRecorder(64)
	ev := Event{Kind: EventAdmit, ID: "obj", Trace: "trace", Importance: 0.5, Boundary: 0.25}
	for range 64 {
		rec.Record(ev)
	}
	if allocs := testing.AllocsPerRun(1000, func() { rec.Record(ev) }); allocs != 0 {
		t.Errorf("Recorder.Record allocates %v times per event", allocs)
	}
	spans := NewSpanRing(8)
	sp := Span{Trace: "t", ID: 1, Name: "put", Start: time.Now()}
	for range 8 {
		spans.Record(sp)
	}
	if allocs := testing.AllocsPerRun(1000, func() { spans.Record(sp) }); allocs != 0 {
		t.Errorf("span ring Record allocates %v times per span", allocs)
	}
	if got := rec.Len(); got != 64+1001 {
		t.Errorf("Len = %d, want %d", got, 64+1001)
	}
}

// TestRingGrowsThenWraps: the slots grow as records arrive, never past the
// ring's size, and snapshots stay oldest first through the growth and
// after the wrap, whatever order the records arrived in.
func TestRingGrowsThenWraps(t *testing.T) {
	const size = 100 // not a power of two, so growth must stop short of doubling
	r := NewSampleRing(size)
	for i := 1; i <= 3*size+7; i++ {
		// Recorded out of sample order within each pair: snapshots sort.
		at := time.Duration(i + 1 - 2*(i%2))
		r.Record(DensitySample{At: at, Used: int64(i)})
		got := r.Snapshot()
		if want := min(i, size); len(got) != want {
			t.Fatalf("after %d records the ring holds %d, want %d", i, len(got), want)
		}
		for k := 1; k < len(got); k++ {
			if got[k].At < got[k-1].At {
				t.Fatalf("after %d records the snapshot is out of order at %d: %v then %v", i, k, got[k-1].At, got[k].At)
			}
		}
		if cap(r.slots) > size {
			t.Fatalf("after %d records the slots hold room for %d, past the size %d", i, cap(r.slots), size)
		}
	}
	got := r.Snapshot()
	// The newest size records survive: 208..307 by record number.
	for _, sm := range got {
		if sm.Used <= 2*size+7 {
			t.Fatalf("record %d survived the wrap", sm.Used)
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	// Every kind through the last one declared: a kind added without a
	// mnemonic fails here.
	seen := make(map[string]bool)
	for k := EventAdmit; k <= EventConfigMismatch; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "event(") {
			t.Fatalf("kind %d has no mnemonic", k)
		}
		if seen[s] {
			t.Fatalf("duplicate mnemonic %q", s)
		}
		seen[s] = true
		text, err := k.MarshalText()
		var back EventKind
		if err != nil || back.UnmarshalText(text) != nil || back != k {
			t.Fatalf("kind %d: text %q decodes as %d", k, text, back)
		}
	}
	if got := EventKind(200).String(); got != "event(200)" {
		t.Fatalf("unknown kind: got %q", got)
	}
	var k EventKind
	if err := k.UnmarshalText([]byte("event(200)")); err == nil {
		t.Fatalf("an unknown mnemonic decoded as %d", k)
	}
}

func TestSpanContext(t *testing.T) {
	root := NewRoot()
	if !root.Valid() || root.Span != 0 {
		t.Fatalf("NewRoot: %+v", root)
	}
	id, child := root.Child()
	if id == 0 || child.Span != id || child.Trace != root.Trace {
		t.Fatalf("Child: id=%d child=%+v", id, child)
	}
	ctx := NewContext(context.Background(), child)
	got, ok := FromContext(ctx)
	if !ok || got != child {
		t.Fatalf("FromContext: %+v ok=%t", got, ok)
	}
	if _, ok := FromContext(context.Background()); ok {
		t.Fatalf("FromContext on bare ctx returned a span context")
	}
	if NewContext(context.Background(), SpanContext{}) != context.Background() {
		t.Fatalf("invalid span context should not allocate a context")
	}
}

func TestNewSpanIDUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := NewSpanID()
		if id == 0 || seen[id] {
			t.Fatalf("span ID %d duplicated or zero", id)
		}
		seen[id] = true
	}
}

func TestAssembleCrossNodeTree(t *testing.T) {
	base := time.Now()
	spans := []Span{
		{Trace: "t", ID: 1, Parent: 0, Name: "put", Node: "n1", Start: base, Duration: 5 * time.Millisecond},
		{Trace: "t", ID: 2, Parent: 1, Name: "replicate", Node: "n2", Start: base.Add(time.Millisecond), Duration: time.Millisecond},
		{Trace: "t", ID: 3, Parent: 1, Name: "replicate", Node: "n3", Start: base.Add(2 * time.Millisecond), Duration: time.Millisecond},
		{Trace: "t", ID: 4, Parent: 99, Name: "repair-pull", Node: "n3", Start: base.Add(3 * time.Millisecond), Duration: time.Millisecond},
	}
	roots := Assemble(spans)
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2 (tree root + orphan)", len(roots))
	}
	if roots[0].Span.ID != 1 || len(roots[0].Children) != 2 {
		t.Fatalf("root: %+v with %d children", roots[0].Span, len(roots[0].Children))
	}
	if roots[0].Children[0].Span.Node != "n2" || roots[0].Children[1].Span.Node != "n3" {
		t.Fatalf("children out of start order: %+v", roots[0].Children)
	}
	if CountSpans(roots) != 4 {
		t.Fatalf("CountSpans: got %d, want 4", CountSpans(roots))
	}
	var sb strings.Builder
	FormatTree(&sb, roots)
	out := sb.String()
	for _, want := range []string{"put", "replicate", "repair-pull", "n1", "n2", "n3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatTree missing %q:\n%s", want, out)
		}
	}
}
