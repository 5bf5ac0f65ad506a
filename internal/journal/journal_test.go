package journal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

const day = importance.Day

func sampleRecords() []Record {
	return []Record{
		{
			Kind: KindPut, At: time.Hour, ID: "cs101/l1", Size: 1024,
			Owner: "prof", Class: object.ClassUniversity, Version: 1,
			Importance: importance.TwoStep{Plateau: 1, Persist: 15 * day, Wane: 15 * day},
		},
		{
			Kind: KindPut, At: 2 * time.Hour, ID: "cs101/l2", Size: 2048,
			Owner: "student", Class: object.ClassStudent, Version: 1,
			Importance: importance.Constant{Level: 0.5},
		},
		{Kind: KindEvict, At: 3 * time.Hour, ID: "cs101/l2"},
		{
			Kind: KindRejuvenate, At: 4 * time.Hour, ID: "cs101/l1",
			Importance: importance.Constant{Level: 0.2},
		},
		{Kind: KindDelete, At: 5 * time.Hour, ID: "cs101/l1"},
	}
}

// writeAll appends records to the WAL at dir and closes it cleanly.
func writeAll(t *testing.T, dir string, records []Record) {
	t.Helper()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	appendAll(t, w, records)
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestWALRoundTripAllKinds: every record kind comes back from replay with
// every field it carries, importance function included.
func TestWALRoundTripAllKinds(t *testing.T) {
	dir := t.TempDir()
	want := sampleRecords()
	writeAll(t, dir, want)

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
	for i := range want {
		w, g := want[i], got[i]
		if g.Kind != w.Kind || g.At != w.At || g.ID != w.ID ||
			g.Size != w.Size || g.Owner != w.Owner || g.Class != w.Class ||
			g.Version != w.Version {
			t.Errorf("record %d = %+v, want %+v", i, g, w)
		}
		if w.Importance != nil {
			if g.Importance == nil {
				t.Fatalf("record %d lost importance", i)
			}
			for _, age := range []time.Duration{0, 10 * day, 20 * day} {
				if g.Importance.At(age) != w.Importance.At(age) {
					t.Errorf("record %d importance changed at %v", i, age)
				}
			}
		}
	}
}

func TestReplayWALMissingDir(t *testing.T) {
	stats, err := ReplayWAL(filepath.Join(t.TempDir(), "nope"), 0, func(Record) error {
		t.Error("fn called for a missing directory")
		return nil
	})
	if err != nil || stats != (WALStats{}) {
		t.Errorf("ReplayWAL missing = %+v, %v; want zero stats, nil", stats, err)
	}
}

// TestReplayWALCorruptTail: a final record that fails its CRC with nothing
// valid after it is the torn tail of a crash, dropped without an error.
func TestReplayWALCorruptTail(t *testing.T) {
	dir := t.TempDir()
	writeAll(t, dir, sampleRecords())
	seg := filepath.Join(dir, Segments.Name(1))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	full[len(full)-1] ^= 0xFF
	if err := os.WriteFile(seg, full, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	stats, err := ReplayWAL(dir, 0, func(Record) error { return nil })
	if err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	if stats.Records != len(sampleRecords())-1 || stats.TornTailBytes == 0 {
		t.Errorf("stats = %+v, want %d records and a torn tail", stats, len(sampleRecords())-1)
	}
}

func TestReplayWALFnErrorAborts(t *testing.T) {
	dir := t.TempDir()
	writeAll(t, dir, sampleRecords())
	calls := 0
	stats, err := ReplayWAL(dir, 0, func(Record) error {
		calls++
		if calls == 2 {
			return os.ErrInvalid
		}
		return nil
	})
	if !errors.Is(err, os.ErrInvalid) {
		t.Errorf("fn error not propagated: %v", err)
	}
	if calls != 2 || stats.Records != 1 {
		t.Errorf("fn called %d times with %d records applied, want 2 and 1", calls, stats.Records)
	}
}

// TestWALCloseIdempotent: the daemon closes the WAL explicitly after
// draining and again from a deferred safety net; the second close must be a
// no-op and later writes must fail loudly instead of hitting a closed file.
func TestWALCloseIdempotent(t *testing.T) {
	w, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if err := w.Append(sampleRecords()[0]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := w.Append(sampleRecords()[0]); !errors.Is(err, ErrJournalClosed) {
		t.Errorf("Append after Close err = %v, want ErrJournalClosed", err)
	}
	if err := w.Sync(); err != nil {
		t.Errorf("Sync after Close err = %v, want nil (no-op)", err)
	}
}

func TestEncodeRejectsInvalidKind(t *testing.T) {
	if _, err := encode(Record{Kind: KindInvalid, ID: "x"}); err == nil {
		t.Error("invalid kind accepted")
	}
	if _, err := encode(Record{Kind: KindPut, ID: "x"}); err == nil {
		t.Error("put without importance accepted")
	}
}

// TestDecodeRefusesTrailingImportanceBytes: an importance field holding
// more than one function's encoding is corrupt, for puts and rejuvenations
// alike, as the wire protocol refuses it.
func TestDecodeRefusesTrailingImportanceBytes(t *testing.T) {
	for _, r := range sampleRecords() {
		if r.Importance == nil {
			continue
		}
		body, err := encode(r)
		if err != nil {
			t.Fatalf("encode %v: %v", r.Kind, err)
		}
		if _, err := decode(body); err != nil {
			t.Fatalf("decode %v: %v", r.Kind, err)
		}
		imp, err := importance.Encode(r.Importance)
		if err != nil {
			t.Fatal(err)
		}
		// The field ends the record: widen it by one byte.
		binary.BigEndian.PutUint16(body[len(body)-len(imp)-2:], uint16(len(imp)+1))
		if _, err := decode(append(body, 0)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%v with a trailing byte in its importance field: err = %v, want ErrCorrupt", r.Kind, err)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindPut: "put", KindDelete: "delete", KindEvict: "evict",
		KindRejuvenate: "rejuvenate", Kind(99): "kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}
