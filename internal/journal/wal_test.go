package journal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"besteffs/internal/faultnet"
	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// manyRecords builds n deterministic records (a rotating mix of kinds).
func manyRecords(n int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		id := object.ID(fmt.Sprintf("obj-%04d", i))
		switch i % 4 {
		case 0, 1:
			recs = append(recs, Record{
				Kind: KindPut, At: time.Duration(i) * time.Minute, ID: id,
				Size: int64(100 + i), Owner: fmt.Sprintf("u%d", i%3),
				Class:      object.ClassStudent,
				Version:    1,
				Importance: importance.TwoStep{Plateau: 0.5, Persist: 10 * day, Wane: 5 * day},
			})
		case 2:
			recs = append(recs, Record{Kind: KindEvict, At: time.Duration(i) * time.Minute, ID: id})
		default:
			recs = append(recs, Record{
				Kind: KindRejuvenate, At: time.Duration(i) * time.Minute, ID: id,
				Importance: importance.Constant{Level: 0.3},
			})
		}
	}
	return recs
}

func appendAll(t *testing.T, w *WAL, recs []Record) {
	t.Helper()
	for i, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func TestWALRotationAndReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WithSegmentBytes(256))
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	want := manyRecords(40)
	appendAll(t, w, want)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seqs, err := Segments.List(dir)
	if err != nil {
		t.Fatalf("Segments.List: %v", err)
	}
	if len(seqs) < 3 {
		t.Fatalf("256-byte rotation produced only %d segment(s)", len(seqs))
	}
	var got []Record
	stats, err := ReplayWAL(dir, 0, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	if stats.Records != len(want) || len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", stats.Records, len(want))
	}
	if stats.Segments != len(seqs) || stats.TornTailBytes != 0 {
		t.Errorf("stats = %+v, want %d clean segments", stats, len(seqs))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].ID != want[i].ID || got[i].At != want[i].At {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWALReopenAppends(t *testing.T) {
	dir := t.TempDir()
	want := manyRecords(20)
	w, err := OpenWAL(dir, WithSegmentBytes(256))
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	appendAll(t, w, want[:11])
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w2, err := OpenWAL(dir, WithSegmentBytes(256))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	appendAll(t, w2, want[11:])
	if err := w2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	n := 0
	if _, err := ReplayWAL(dir, 0, func(r Record) error {
		if r.ID != want[n].ID {
			return fmt.Errorf("record %d = %s, want %s", n, r.ID, want[n].ID)
		}
		n++
		return nil
	}); err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	if n != len(want) {
		t.Errorf("replayed %d records across reopen, want %d", n, len(want))
	}
}

// walBytes captures the concatenated record-stream bytes and per-record
// frame sizes of a WAL write, for offset arithmetic in torn-tail tests.
func walBytes(t *testing.T, recs []Record, segBytes int64) (total int64, frameEnds []int64) {
	t.Helper()
	dir := t.TempDir()
	w, err := OpenWAL(dir, WithSegmentBytes(segBytes))
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	for i, r := range recs {
		body, err := encode(r)
		if err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
		total += int64(8 + len(body))
		frameEnds = append(frameEnds, total)
		if err := w.Append(r); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	w.Close()
	return total, frameEnds
}

// TestWALTornAtEveryByte kills the record stream at every byte offset --
// across several rotation boundaries -- restarts, and checks OpenWAL
// truncates the torn tail and replay recovers exactly the fully-written
// prefix of the history.
func TestWALTornAtEveryByte(t *testing.T) {
	want := manyRecords(24)
	const segBytes = 200
	total, frameEnds := walBytes(t, want, segBytes)

	expected := func(budget int64) int {
		n := 0
		for _, end := range frameEnds {
			if end <= budget {
				n++
			}
		}
		return n
	}

	for budget := int64(0); budget <= total; budget++ {
		dir := t.TempDir()
		b := faultnet.NewWriteBudget(budget)
		w, err := OpenWAL(dir, WithSegmentBytes(segBytes),
			WithWriteWrapper(func(seq uint64, dst io.Writer) io.Writer { return b.Writer(dst) }))
		if err != nil {
			t.Fatalf("budget %d: OpenWAL: %v", budget, err)
		}
		acked := 0
		for _, r := range want {
			if err := w.Append(r); err != nil {
				break // the crash point: the process dies here
			}
			acked++
		}
		w.Close()

		// Restart: open must repair the torn tail, replay must recover the
		// clean prefix, and the reopened WAL must accept appends that a
		// second replay then sees.
		w2, err := OpenWAL(dir, WithSegmentBytes(segBytes))
		if err != nil {
			t.Fatalf("budget %d: reopen: %v", budget, err)
		}
		var got []Record
		if _, err := ReplayWAL(dir, 0, func(r Record) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatalf("budget %d: ReplayWAL: %v", budget, err)
		}
		wantN := expected(budget)
		if len(got) != wantN {
			t.Fatalf("budget %d: recovered %d records, want %d", budget, len(got), wantN)
		}
		// An append is acknowledged exactly when its frame is durable.
		if acked != wantN {
			t.Fatalf("budget %d: %d appends acknowledged but %d frames durable", budget, acked, wantN)
		}
		for i := range got {
			if got[i].Kind != want[i].Kind || got[i].ID != want[i].ID {
				t.Fatalf("budget %d: record %d = %v %s, want %v %s",
					budget, i, got[i].Kind, got[i].ID, want[i].Kind, want[i].ID)
			}
		}
		extra := Record{Kind: KindDelete, At: time.Hour, ID: "post-crash"}
		if err := w2.Append(extra); err != nil {
			t.Fatalf("budget %d: append after recovery: %v", budget, err)
		}
		if err := w2.Close(); err != nil {
			t.Fatalf("budget %d: close: %v", budget, err)
		}
		n := 0
		if _, err := ReplayWAL(dir, 0, func(Record) error { n++; return nil }); err != nil {
			t.Fatalf("budget %d: replay after append: %v", budget, err)
		}
		if n != wantN+1 {
			t.Fatalf("budget %d: post-recovery append lost (%d records, want %d)", budget, n, wantN+1)
		}
	}
}

// TestWALCorruptMidSegmentIsHardFault flips a byte inside a record that has
// valid records after it: that is bit rot, not a crash, and both replay and
// open must refuse rather than silently drop acknowledged history.
func TestWALCorruptMidSegmentIsHardFault(t *testing.T) {
	t.Run("tail segment", func(t *testing.T) {
		dir := t.TempDir()
		w, err := OpenWAL(dir) // default size: everything in one segment
		if err != nil {
			t.Fatalf("OpenWAL: %v", err)
		}
		appendAll(t, w, manyRecords(10))
		w.Close()
		seqs, _ := Segments.List(dir)
		path := filepath.Join(dir, Segments.Name(seqs[len(seqs)-1]))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		data[20] ^= 0xFF // inside the first record's body
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := ReplayWAL(dir, 0, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Errorf("ReplayWAL err = %v, want ErrCorrupt", err)
		}
		if _, err := OpenWAL(dir); !errors.Is(err, ErrCorrupt) {
			t.Errorf("OpenWAL err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("sealed segment", func(t *testing.T) {
		dir := t.TempDir()
		w, err := OpenWAL(dir, WithSegmentBytes(200))
		if err != nil {
			t.Fatalf("OpenWAL: %v", err)
		}
		appendAll(t, w, manyRecords(20))
		w.Close()
		seqs, _ := Segments.List(dir)
		if len(seqs) < 2 {
			t.Fatalf("want >= 2 segments, got %d", len(seqs))
		}
		path := filepath.Join(dir, Segments.Name(seqs[0]))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		data[len(data)-1] ^= 0xFF // even the sealed segment's final record is protected
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := ReplayWAL(dir, 0, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Errorf("ReplayWAL err = %v, want ErrCorrupt", err)
		}
	})
}

func TestWALBarrierAndRemoveThrough(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WithSegmentBytes(1<<20))
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	recs := manyRecords(10)
	appendAll(t, w, recs[:6])
	sealed, err := w.Barrier()
	if err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	if sealed != 1 {
		t.Fatalf("Barrier sealed segment %d, want 1", sealed)
	}
	// A second barrier with nothing new appended seals nothing further.
	again, err := w.Barrier()
	if err != nil || again != sealed {
		t.Fatalf("idle Barrier = %d, %v; want %d, nil", again, err, sealed)
	}
	appendAll(t, w, recs[6:])
	n := 0
	if _, err := ReplayWAL(dir, sealed, func(Record) error { n++; return nil }); err != nil {
		t.Fatalf("ReplayWAL after barrier: %v", err)
	}
	if n != 4 {
		t.Errorf("replay after sealed segment saw %d records, want 4", n)
	}
	removed, err := w.RemoveThrough(sealed)
	if err != nil || removed != 1 {
		t.Fatalf("RemoveThrough = %d, %v; want 1, nil", removed, err)
	}
	total := 0
	if _, err := ReplayWAL(dir, 0, func(Record) error { total++; return nil }); err != nil {
		t.Fatalf("ReplayWAL after removal: %v", err)
	}
	if total != 4 {
		t.Errorf("full replay after removal saw %d records, want 4", total)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := w.Append(recs[0]); !errors.Is(err, ErrJournalClosed) {
		t.Errorf("Append after Close = %v, want ErrJournalClosed", err)
	}
	if err := w.Sync(); err != nil {
		t.Errorf("Sync after Close = %v, want nil", err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	objs := make([]Record, 0, 5)
	for i := 0; i < 5; i++ {
		o, err := object.New(object.ID(fmt.Sprintf("live-%d", i)), int64(100+i),
			time.Duration(i)*time.Hour,
			importance.TwoStep{Plateau: 1, Persist: 15 * day, Wane: 15 * day})
		if err != nil {
			t.Fatalf("object.New: %v", err)
		}
		o.SetOwner("owner")
		o.Version = uint32(i + 1)
		objs = append(objs, ObjectRecord(o))
	}
	want := Checkpoint{CoversSeq: 7, Resume: 9 * time.Hour, Objects: objs}
	if err := WriteCheckpoint(dir, want); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	got, skipped, err := LoadLatestCheckpoint(dir)
	if err != nil || skipped != 0 {
		t.Fatalf("LoadLatestCheckpoint: %v (skipped %d)", err, skipped)
	}
	if got.CoversSeq != want.CoversSeq || got.Resume != want.Resume || len(got.Objects) != len(want.Objects) {
		t.Fatalf("checkpoint = %d/%v/%d objects, want %d/%v/%d",
			got.CoversSeq, got.Resume, len(got.Objects),
			want.CoversSeq, want.Resume, len(want.Objects))
	}
	for i, r := range got.Objects {
		o, err := r.Object()
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
		w := want.Objects[i]
		if o.ID != w.ID || o.Size != w.Size || o.Arrival != w.At || o.Version != w.Version {
			t.Errorf("object %d = %v, want %+v", i, o, w)
		}
		for _, age := range []time.Duration{0, 10 * day, 20 * day} {
			if o.Importance.At(age) != w.Importance.At(age) {
				t.Errorf("object %d importance diverges at age %v", i, age)
			}
		}
	}
}

func TestCheckpointDamageFallsBack(t *testing.T) {
	dir := t.TempDir()
	older := Checkpoint{CoversSeq: 3, Resume: time.Hour,
		Objects: []Record{ObjectRecord(mustObject(t, "old", 10))}}
	newer := Checkpoint{CoversSeq: 5, Resume: 2 * time.Hour,
		Objects: []Record{ObjectRecord(mustObject(t, "new", 20))}}
	if err := WriteCheckpoint(dir, older); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if err := WriteCheckpoint(dir, newer); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	// Flip a byte in the newer checkpoint: load must fall back to the older.
	path := CheckpointPath(dir, 5)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[len(data)-2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, skipped, err := LoadLatestCheckpoint(dir)
	if err != nil {
		t.Fatalf("LoadLatestCheckpoint: %v", err)
	}
	if skipped != 1 || got.CoversSeq != 3 {
		t.Errorf("loaded checkpoint %d (skipped %d), want fall back to 3 (skipped 1)", got.CoversSeq, skipped)
	}
	// Damage the older one too: now there is no checkpoint at all.
	path = CheckpointPath(dir, 3)
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[9] ^= 0xFF // header
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, _, err := LoadLatestCheckpoint(dir); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("LoadLatestCheckpoint = %v, want ErrNoCheckpoint", err)
	}
}

func TestRemoveCheckpointsBefore(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []uint64{2, 4, 6} {
		if err := WriteCheckpoint(dir, Checkpoint{CoversSeq: seq}); err != nil {
			t.Fatalf("WriteCheckpoint %d: %v", seq, err)
		}
	}
	removed, err := Checkpoints.Prune(dir, 6)
	if err != nil || removed != 2 {
		t.Fatalf("Checkpoints.Prune = %d, %v; want 2, nil", removed, err)
	}
	seqs, err := Checkpoints.List(dir)
	if err != nil || len(seqs) != 1 || seqs[0] != 6 {
		t.Errorf("remaining checkpoints = %v, %v; want [6]", seqs, err)
	}
}

func mustObject(t *testing.T, id string, size int64) *object.Object {
	t.Helper()
	o, err := object.New(object.ID(id), size, 0, importance.Constant{Level: 1})
	if err != nil {
		t.Fatalf("object.New: %v", err)
	}
	return o
}

func TestCheckWALReports(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WithSegmentBytes(200))
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	appendAll(t, w, manyRecords(20))
	w.Close()
	seqs, _ := Segments.List(dir)
	if len(seqs) < 2 {
		t.Fatalf("want >= 2 segments, got %d", len(seqs))
	}
	// Flip a byte in the first (sealed) segment and truncate the last.
	first := filepath.Join(dir, Segments.Name(seqs[0]))
	data, _ := os.ReadFile(first)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(first, data, 0o644)
	last := filepath.Join(dir, Segments.Name(seqs[len(seqs)-1]))
	info, _ := os.Stat(last)
	os.Truncate(last, info.Size()-3)

	reports, err := CheckWAL(dir, 0)
	if err != nil {
		t.Fatalf("CheckWAL: %v", err)
	}
	if len(reports) != len(seqs) {
		t.Fatalf("%d reports, want %d", len(reports), len(seqs))
	}
	if reports[0].Damage != DamageCorrupt {
		t.Errorf("sealed segment damage = %v, want corrupt", reports[0].Damage)
	}
	if last := reports[len(reports)-1]; last.Damage != DamageTornTail {
		t.Errorf("tail segment damage = %v, want torn tail", last.Damage)
	}
	for _, r := range reports[1 : len(reports)-1] {
		if r.Damage != DamageNone {
			t.Errorf("segment %d damage = %v, want ok", r.Seq, r.Damage)
		}
	}
}
