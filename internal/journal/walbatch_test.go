package journal

import (
	"errors"
	"io"
	"reflect"
	"testing"

	"besteffs/internal/faultnet"
)

func TestWALAppendBatchReplaysIdentically(t *testing.T) {
	want := manyRecords(30)

	single := t.TempDir()
	w, err := OpenWAL(single, WithSegmentBytes(256))
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	appendAll(t, w, want)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	batched := t.TempDir()
	w, err = OpenWAL(batched, WithSegmentBytes(256))
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	// Append in uneven groups to cross rotation boundaries mid-batch.
	for start := 0; start < len(want); {
		end := start + 1 + start%5
		if end > len(want) {
			end = len(want)
		}
		n, err := w.AppendBatch(want[start:end])
		if err != nil {
			t.Fatalf("AppendBatch[%d:%d]: %v", start, end, err)
		}
		if n != end-start {
			t.Fatalf("AppendBatch wrote %d, want %d", n, end-start)
		}
		start = end
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	replay := func(dir string) []Record {
		var got []Record
		if _, err := ReplayWAL(dir, 0, func(r Record) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatalf("ReplayWAL(%s): %v", dir, err)
		}
		return got
	}
	one, grouped := replay(single), replay(batched)
	if !reflect.DeepEqual(one, grouped) {
		t.Fatalf("batched WAL replays %d records differently from single appends (%d)",
			len(grouped), len(one))
	}
}

func TestWALAppendBatchAfterClose(t *testing.T) {
	w, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := w.AppendBatch(manyRecords(2)); !errors.Is(err, ErrJournalClosed) {
		t.Errorf("AppendBatch after Close = %v, want ErrJournalClosed", err)
	}
}

func TestWALAppendBatchEmpty(t *testing.T) {
	w, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	defer w.Close()
	n, err := w.AppendBatch(nil)
	if err != nil || n != 0 {
		t.Errorf("AppendBatch(nil) = %d, %v; want 0, nil", n, err)
	}
}

// TestWALAppendBatchTornAtEveryByte cuts a batched record stream at every
// byte offset: every record of a group AppendBatch acknowledged must be
// recovered, and whatever else is recovered is a prefix of the one group
// the cut interrupted -- the contract the server's group commit relies on.
func TestWALAppendBatchTornAtEveryByte(t *testing.T) {
	want := manyRecords(18)
	const segBytes, group = 200, 3
	total, _ := walBytes(t, want, segBytes)

	for budget := int64(0); budget <= total; budget++ {
		dir := t.TempDir()
		b := faultnet.NewWriteBudget(budget)
		w, err := OpenWAL(dir, WithSegmentBytes(segBytes),
			WithWriteWrapper(func(seq uint64, dst io.Writer) io.Writer { return b.Writer(dst) }))
		if err != nil {
			t.Fatalf("budget %d: OpenWAL: %v", budget, err)
		}
		acked := 0
		for start := 0; start < len(want); start += group {
			if _, err := w.AppendBatch(want[start : start+group]); err != nil {
				break // the crash point
			}
			acked += group
		}
		w.Close()

		var got []Record
		if _, err := ReplayWAL(dir, 0, func(r Record) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatalf("budget %d: ReplayWAL: %v", budget, err)
		}
		if len(got) < acked || len(got) > acked+group {
			t.Fatalf("budget %d: recovered %d records with %d acknowledged (group of %d)",
				budget, len(got), acked, group)
		}
		for i := range got {
			if got[i].Kind != want[i].Kind || got[i].ID != want[i].ID {
				t.Fatalf("budget %d: record %d = %v %s, want %v %s",
					budget, i, got[i].Kind, got[i].ID, want[i].Kind, want[i].ID)
			}
		}
	}
}
