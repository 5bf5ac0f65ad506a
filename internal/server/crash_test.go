package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
	"time"

	"besteffs/internal/faultnet"
	"besteffs/internal/importance"
	"besteffs/internal/journal"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/wire"
)

// The kill-at-every-write-offset harness. One scripted, fully deterministic
// workload runs against a WAL whose byte stream is cut by a shared
// faultnet.WriteBudget at every possible offset -- every crash point a torn
// process can produce, including cuts that straddle segment rotations. For
// each crash point a fresh server recovers via RestoreDir and must satisfy:
//
//   - the recovered record count equals the number of complete frames in
//     the durable prefix -- a torn final record is silently truncated, and
//     every append the WAL acknowledged is a complete durable frame (the
//     journal package's torn-at-every-byte sweeps hold the WAL to that for
//     single and batched appends);
//   - the recovered unit satisfies the store invariants and matches the
//     state obtained by replaying the same record prefix independently.

const (
	crashCapacity = 4096
	crashSegBytes = 160 // several rotations across the workload
)

// quietLogger suppresses the recovery warnings the harness provokes
// thousands of times.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// crashWorkload drives the scripted op sequence through the server's
// request executor: puts, an update, a rejuvenation, a delete and enough
// bytes to force evictions. Decisions depend only on unit state and the
// manual clock, never on journal outcomes, so every run produces the same
// journal byte stream until its budget cuts it.
func crashWorkload(srv *Server, clock *manualClock) {
	two := importance.TwoStep{Plateau: 0.9, Persist: 10 * day, Wane: 10 * day}
	step := func(msg wire.Message) {
		srv.execute(msg)
		clock.Advance(time.Hour)
	}
	step(&wire.Put{ID: "a", Owner: "alice", Importance: two, Payload: make([]byte, 1024)})
	step(&wire.Put{ID: "b", Owner: "bob", Importance: two, Payload: make([]byte, 1024)})
	step(&wire.Put{ID: "c", Owner: "carol", Importance: importance.Constant{Level: 0.2}, Payload: make([]byte, 1024)})
	step(&wire.Rejuvenate{ID: "b", Importance: importance.Constant{Level: 0.8}})
	step(&wire.Update{ID: "a", Owner: "alice", Importance: two, Payload: make([]byte, 512)})
	step(&wire.Delete{ID: "c"})
	// Pressure: these puts exceed free space and preempt lower importance.
	step(&wire.Put{ID: "d", Owner: "dave", Importance: importance.Constant{Level: 0.95}, Payload: make([]byte, 2048)})
	step(&wire.Put{ID: "e", Owner: "erin", Importance: importance.Constant{Level: 0.99}, Payload: make([]byte, 1024)})
	step(&wire.Rejuvenate{ID: "d", Importance: importance.Constant{Level: 0.5}})
	step(&wire.Put{ID: "f", Owner: "frank", Importance: importance.Constant{Level: 0.97}, Payload: make([]byte, 512)})
	// Batched appends: puts admitted as one group journal through one
	// AppendBatch barrier. The first batch evicts to admit and mixes in a
	// delete; the second forces evictions planned within the group.
	step(&wire.Batch{Subs: []wire.Message{
		&wire.Put{ID: "g", Owner: "gail", Importance: importance.Constant{Level: 0.98}, Payload: make([]byte, 256)},
		&wire.Put{ID: "h", Owner: "hank", Importance: importance.Constant{Level: 0.96}, Payload: make([]byte, 256)},
		&wire.Delete{ID: "a"},
	}})
	step(&wire.Batch{Subs: []wire.Message{
		&wire.Put{ID: "i", Owner: "iris", Importance: importance.Constant{Level: 0.99}, Payload: make([]byte, 2048)},
		&wire.Put{ID: "j", Owner: "jack", Importance: importance.Constant{Level: 0.99}, Payload: make([]byte, 512)},
	}})
}

// runCrashWorkload runs the workload over a fresh data dir whose WAL bytes
// stop flowing after budget bytes (budget < 0 means unlimited).
func runCrashWorkload(t *testing.T, dataDir string, budget int64) {
	t.Helper()
	opts := []journal.WALOption{journal.WithSegmentBytes(crashSegBytes)}
	if budget >= 0 {
		shared := faultnet.NewWriteBudget(budget)
		opts = append(opts, journal.WithWriteWrapper(func(seq uint64, w io.Writer) io.Writer {
			return shared.Writer(w)
		}))
	}
	wal, err := journal.OpenWAL(filepath.Join(dataDir, WALDirName), opts...)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	clock := &manualClock{}
	srv, err := New(EngineConfig{Capacity: crashCapacity, Policy: policy.TemporalImportance{}},
		WithClock(clock.Now), WithWAL(wal), WithLogger(quietLogger()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	crashWorkload(srv, clock)
	wal.Close() // the crashed run's final flush may fail; the bytes on disk are what count
}

// frameEnds parses the concatenated segment byte stream and returns the
// cumulative offset at which each complete frame ends.
func frameEnds(t *testing.T, walDir string) []int64 {
	t.Helper()
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var stream []byte
	for _, e := range entries { // ReadDir sorts by name = by sequence
		if filepath.Ext(e.Name()) != ".seg" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(walDir, e.Name()))
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		stream = append(stream, b...)
	}
	var ends []int64
	off := int64(0)
	for off+8 <= int64(len(stream)) {
		frame := 8 + int64(binary.BigEndian.Uint32(stream[off:off+4]))
		if off+frame > int64(len(stream)) {
			t.Fatalf("reference stream has a torn frame at offset %d", off)
		}
		off += frame
		ends = append(ends, off)
	}
	if off != int64(len(stream)) {
		t.Fatalf("reference stream has %d trailing bytes", int64(len(stream))-off)
	}
	return ends
}

// referenceStates replays the reference record list prefix by prefix:
// states[k] is the resident set (ID -> object) after applying the first k
// records.
func referenceStates(t *testing.T, recs []journal.Record) []map[object.ID]*object.Object {
	t.Helper()
	srv, err := New(EngineConfig{Capacity: crashCapacity, Policy: policy.TemporalImportance{}}, WithLogger(quietLogger()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	states := make([]map[object.ID]*object.Object, len(recs)+1)
	states[0] = map[object.ID]*object.Object{}
	for k, r := range recs {
		if err := applyRecord(srv.shards[0].unit, r); err != nil {
			t.Fatalf("reference record %d: %v", k, err)
		}
		m := make(map[object.ID]*object.Object)
		for _, o := range srv.engine.Residents() {
			m[o.ID] = o
		}
		states[k+1] = m
	}
	return states
}

// checkUnitInvariants asserts the accounting invariants every recovered
// unit must satisfy, whatever the crash point.
func checkUnitInvariants(t *testing.T, srv *Server, budget int64) {
	t.Helper()
	u := srv.engine
	if u.Used()+u.Free() != u.Capacity() {
		t.Errorf("budget %d: used %d + free %d != capacity %d",
			budget, u.Used(), u.Free(), u.Capacity())
	}
	if u.Used() < 0 || u.Free() < 0 {
		t.Errorf("budget %d: negative accounting: used %d free %d", budget, u.Used(), u.Free())
	}
	sum := int64(0)
	for _, o := range u.Residents() {
		sum += o.Size
	}
	if sum != u.Used() {
		t.Errorf("budget %d: resident bytes %d != used %d", budget, sum, u.Used())
	}
	if d := u.DensityAt(srv.Now()); d < 0 || d > 1 {
		t.Errorf("budget %d: density %v outside [0,1]", budget, d)
	}
}

func TestCrashAtEveryWriteOffset(t *testing.T) {
	root := t.TempDir()

	// Reference run: unlimited budget, clean close.
	refDir := filepath.Join(root, "ref")
	runCrashWorkload(t, refDir, -1)
	refWal := filepath.Join(refDir, WALDirName)
	ends := frameEnds(t, refWal)
	var refRecs []journal.Record
	walStats, err := journal.ReplayWAL(refWal, 0, func(r journal.Record) error {
		refRecs = append(refRecs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay reference: %v", err)
	}
	if walStats.Segments < 3 {
		t.Fatalf("reference workload used %d segments; want >= 3 so cuts straddle rotations", walStats.Segments)
	}
	states := referenceStates(t, refRecs)
	total := ends[len(ends)-1]
	t.Logf("reference: %d records, %d segments, %d bytes", len(refRecs), walStats.Segments, total)

	for budget := int64(0); budget <= total; budget++ {
		dataDir := filepath.Join(root, fmt.Sprintf("crash-%04d", budget))
		runCrashWorkload(t, dataDir, budget)

		// Complete frames inside the durable prefix.
		wantRecords := 0
		for _, end := range ends {
			if end <= budget {
				wantRecords++
			}
		}

		rec, err := New(EngineConfig{Capacity: crashCapacity, Policy: policy.TemporalImportance{}}, WithLogger(quietLogger()))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		stats, err := rec.RestoreDir(dataDir)
		if err != nil {
			t.Fatalf("budget %d: RestoreDir: %v", budget, err)
		}
		if stats.Records != wantRecords {
			t.Fatalf("budget %d: recovered %d records, want %d (torn tail: %d bytes)",
				budget, stats.Records, wantRecords, stats.TornTailBytes)
		}
		checkUnitInvariants(t, rec, budget)

		want := states[wantRecords]
		if rec.engine.Len() != len(want) {
			t.Fatalf("budget %d: %d residents, want %d", budget, rec.engine.Len(), len(want))
		}
		for _, o := range rec.engine.Residents() {
			ref, ok := want[o.ID]
			if !ok {
				t.Fatalf("budget %d: unexpected resident %s", budget, o.ID)
			}
			if o.Size != ref.Size || o.Version != ref.Version || o.Arrival != ref.Arrival {
				t.Fatalf("budget %d: resident %s = {size %d v%d arrival %v}, want {size %d v%d arrival %v}",
					budget, o.ID, o.Size, o.Version, o.Arrival, ref.Size, ref.Version, ref.Arrival)
			}
		}
	}
}

// TestRestartAfterCheckpointReplaysOnlyYoungerSegments: a restart after a
// checkpoint must load the snapshot and replay only the records written
// after it -- asserted by counting replayed records -- and the covered
// segments must be gone from disk.
func TestRestartAfterCheckpointReplaysOnlyYoungerSegments(t *testing.T) {
	dataDir := t.TempDir()
	walDir := filepath.Join(dataDir, WALDirName)
	wal, err := journal.OpenWAL(walDir, journal.WithSegmentBytes(crashSegBytes))
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	clock := &manualClock{}
	srv, err := New(EngineConfig{Capacity: crashCapacity, Policy: policy.TemporalImportance{}},
		WithClock(clock.Now), WithWAL(wal), WithLogger(quietLogger()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	two := importance.TwoStep{Plateau: 0.9, Persist: 10 * day, Wane: 10 * day}
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		srv.execute(&wire.Put{ID: object.ID(id), Importance: two, Payload: make([]byte, 256)})
		clock.Advance(time.Hour)
	}
	cpStats, err := srv.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if cpStats.Objects != 5 {
		t.Fatalf("checkpoint captured %d objects, want 5", cpStats.Objects)
	}
	if cpStats.SegmentsRemoved == 0 {
		t.Fatalf("checkpoint removed no segments")
	}

	// Post-checkpoint tail: three more records.
	srv.execute(&wire.Put{ID: "f", Importance: two, Payload: make([]byte, 256)})
	clock.Advance(time.Hour)
	srv.execute(&wire.Rejuvenate{ID: "a", Importance: importance.Constant{Level: 0.5}})
	clock.Advance(time.Hour)
	srv.execute(&wire.Delete{ID: "b"})
	if err := wal.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// No segment the checkpoint covers may remain on disk.
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".seg" {
			continue
		}
		name := e.Name()
		var seq uint64
		if _, err := fmt.Sscanf(name, "%d.seg", &seq); err != nil {
			t.Fatalf("parse segment name %q: %v", name, err)
		}
		if seq <= cpStats.Seq {
			t.Errorf("covered segment %s still on disk after checkpoint", name)
		}
	}

	rec, err := New(EngineConfig{Capacity: crashCapacity, Policy: policy.TemporalImportance{}}, WithLogger(quietLogger()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stats, err := rec.RestoreDir(dataDir)
	if err != nil {
		t.Fatalf("RestoreDir: %v", err)
	}
	if stats.CheckpointSeq != cpStats.Seq || stats.CheckpointObjects != 5 {
		t.Errorf("loaded checkpoint seq %d objects %d, want seq %d objects 5",
			stats.CheckpointSeq, stats.CheckpointObjects, cpStats.Seq)
	}
	// Only the post-checkpoint tail replays: put f + rejuvenate a + delete b.
	if stats.Records != 3 {
		t.Errorf("replayed %d records, want 3 (post-checkpoint tail only)", stats.Records)
	}
	if rec.engine.Len() != 5 {
		t.Errorf("recovered %d residents, want 5 (a,c,d,e,f)", rec.engine.Len())
	}
	if _, err := rec.engine.Get("b"); err == nil {
		t.Error("deleted object b resurrected by recovery")
	}
	a, err := rec.engine.Get("a")
	if err != nil {
		t.Fatalf("Get a: %v", err)
	}
	if a.Version != 2 || a.ImportanceAt(100*day) != 0.5 {
		t.Errorf("post-checkpoint rejuvenation lost: v%d importance %v",
			a.Version, a.ImportanceAt(100*day))
	}
	if rec.Now() < stats.Resume {
		t.Errorf("clock %v did not resume from %v", rec.Now(), stats.Resume)
	}
}
