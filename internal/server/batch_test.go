package server

import (
	"path/filepath"
	"testing"

	"besteffs/internal/importance"
	"besteffs/internal/journal"
	"besteffs/internal/policy"
	"besteffs/internal/wire"
)

func newBatchTestServer(t *testing.T, capacity int64, opts ...Option) *Server {
	t.Helper()
	srv, err := New(EngineConfig{Capacity: capacity, Policy: policy.TemporalImportance{}},
		append([]Option{WithLogger(quietLogger())}, opts...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv
}

func TestBatchAnswersEverySubPositionally(t *testing.T) {
	srv := newBatchTestServer(t, 1<<20)
	imp := importance.Constant{Level: 0.5}
	if res := srv.execute(&wire.Put{ID: "seed", Importance: imp, Payload: []byte("x")}); !res.(*wire.PutResult).Admitted {
		t.Fatalf("seed put: %+v", res)
	}
	resp := srv.execute(&wire.Batch{Subs: []wire.Message{
		&wire.Put{ID: "a", Importance: imp, Payload: []byte("aa")},
		&wire.Get{ID: "seed"},
		&wire.Stat{},
		&wire.Delete{ID: "seed"},
		&wire.Get{ID: "missing"},
	}})
	br, ok := resp.(*wire.BatchResult)
	if !ok {
		t.Fatalf("response = %T (%+v)", resp, resp)
	}
	if len(br.Results) != 5 {
		t.Fatalf("results = %d, want 5", len(br.Results))
	}
	if pr, ok := br.Results[0].(*wire.PutResult); !ok || !pr.Admitted {
		t.Errorf("sub 0 = %+v, want admitted PutResult", br.Results[0])
	}
	if om, ok := br.Results[1].(*wire.ObjectMsg); !ok || om.ID != "seed" {
		t.Errorf("sub 1 = %+v, want seed object", br.Results[1])
	}
	if _, ok := br.Results[2].(*wire.StatResult); !ok {
		t.Errorf("sub 2 = %+v, want StatResult", br.Results[2])
	}
	if _, ok := br.Results[3].(*wire.OK); !ok {
		t.Errorf("sub 3 = %+v, want OK", br.Results[3])
	}
	if em, ok := br.Results[4].(*wire.ErrorMsg); !ok || em.Code != wire.CodeNotFound {
		t.Errorf("sub 4 = %+v, want NotFound", br.Results[4])
	}
}

// TestBatchPutsAreOneGroup pins the group-admission semantics at the wire
// level: a sub that only fits by evicting its own batch sibling is rejected
// ReasonFull, it does not preempt the sibling.
func TestBatchPutsAreOneGroup(t *testing.T) {
	srv := newBatchTestServer(t, 1024)
	resp := srv.execute(&wire.Batch{Subs: []wire.Message{
		&wire.Put{ID: "first", Importance: importance.Constant{Level: 0.2}, Payload: make([]byte, 1024)},
		&wire.Put{ID: "second", Importance: importance.Constant{Level: 0.9}, Payload: make([]byte, 1024)},
	}})
	br := resp.(*wire.BatchResult)
	if pr := br.Results[0].(*wire.PutResult); !pr.Admitted {
		t.Fatalf("first = %+v", pr)
	}
	if pr := br.Results[1].(*wire.PutResult); pr.Admitted {
		t.Fatalf("second admitted over its sibling: %+v", pr)
	}
	// The sibling survived.
	if _, ok := srv.execute(&wire.Get{ID: "first"}).(*wire.ObjectMsg); !ok {
		t.Error("first did not survive the batch")
	}
}

func TestBatchDuplicateAndBadSubsFailIndividually(t *testing.T) {
	srv := newBatchTestServer(t, 1<<20)
	imp := importance.Constant{Level: 0.5}
	resp := srv.execute(&wire.Batch{Subs: []wire.Message{
		&wire.Put{ID: "x", Importance: imp, Payload: []byte("1")},
		&wire.Put{ID: "x", Importance: imp, Payload: []byte("2")}, // duplicate within batch
		&wire.Put{ID: "empty", Importance: imp},                   // empty payload
		&wire.Put{ID: "y", Importance: imp, Payload: []byte("3")},
	}})
	br := resp.(*wire.BatchResult)
	if pr, ok := br.Results[0].(*wire.PutResult); !ok || !pr.Admitted {
		t.Errorf("sub 0 = %+v", br.Results[0])
	}
	if em, ok := br.Results[1].(*wire.ErrorMsg); !ok || em.Code != wire.CodeDuplicate {
		t.Errorf("sub 1 = %+v, want CodeDuplicate", br.Results[1])
	}
	if em, ok := br.Results[2].(*wire.ErrorMsg); !ok || em.Code != wire.CodeBadRequest {
		t.Errorf("sub 2 = %+v, want CodeBadRequest", br.Results[2])
	}
	if pr, ok := br.Results[3].(*wire.PutResult); !ok || !pr.Admitted {
		t.Errorf("sub 3 = %+v", br.Results[3])
	}
}

func TestBatchRespectsNodeLimit(t *testing.T) {
	srv := newBatchTestServer(t, 1<<20, WithMaxBatchSubs(2))
	imp := importance.Constant{Level: 0.5}
	subs := []wire.Message{
		&wire.Put{ID: "1", Importance: imp, Payload: []byte("x")},
		&wire.Put{ID: "2", Importance: imp, Payload: []byte("x")},
		&wire.Put{ID: "3", Importance: imp, Payload: []byte("x")},
	}
	if em, ok := srv.execute(&wire.Batch{Subs: subs}).(*wire.ErrorMsg); !ok || em.Code != wire.CodeBadRequest {
		t.Errorf("oversized batch = %+v, want CodeBadRequest", em)
	}
	if br, ok := srv.execute(&wire.Batch{Subs: subs[:2]}).(*wire.BatchResult); !ok || len(br.Results) != 2 {
		t.Errorf("within-limit batch = %+v", br)
	}
}

// TestBatchJournalsThroughWALBarrier: the batch path must persist exactly
// the records a sequential run would, recoverable after restart.
func TestBatchJournalsThroughWALBarrier(t *testing.T) {
	dir := t.TempDir()
	wal, err := journal.OpenWAL(filepath.Join(dir, WALDirName))
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	srv := newBatchTestServer(t, 1<<20, WithWAL(wal))
	imp := importance.Constant{Level: 0.5}
	srv.execute(&wire.Batch{Subs: []wire.Message{
		&wire.Put{ID: "p1", Importance: imp, Payload: []byte("one")},
		&wire.Put{ID: "p2", Importance: imp, Payload: []byte("two")},
		&wire.Delete{ID: "p1"},
	}})
	if err := wal.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var got []journal.Record
	if _, err := journal.ReplayWAL(filepath.Join(dir, WALDirName), 0, func(r journal.Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	wantKinds := []journal.Kind{journal.KindPut, journal.KindPut, journal.KindDelete}
	if len(got) != len(wantKinds) {
		t.Fatalf("replayed %d records (%+v), want %d", len(got), got, len(wantKinds))
	}
	for i, k := range wantKinds {
		if got[i].Kind != k {
			t.Errorf("record %d kind = %v, want %v", i, got[i].Kind, k)
		}
	}
	if got[0].ID != "p1" || got[1].ID != "p2" || got[2].ID != "p1" {
		t.Errorf("record ids = %s,%s,%s", got[0].ID, got[1].ID, got[2].ID)
	}
}
