package server

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"besteffs/internal/importance"
	"besteffs/internal/journal"
	"besteffs/internal/object"
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

// TestCoalescedRunHoldingBatch passes one session through dispatchGroup
// twice, each time with a coalesced run that holds a BATCH frame: the one
// shape in which executeGroup runs again inside itself, its own put phase
// done and the BATCH's puts still to admit. Every answer lands at its
// request's position, the BATCH's sub-answers too; once the run's buffer is
// released (and poisoned), every resident still reads back byte for byte;
// and the second run, whose scratch the first one grew, allocates no more
// than the first.
func TestCoalescedRunHoldingBatch(t *testing.T) {
	srv := newBatchTestServer(t, 1<<20)
	imp := importance.Constant{Level: 0.5}
	payloadOf := func(id object.ID) []byte {
		return bytes.Repeat([]byte(id), 64)
	}
	put := func(id object.ID) *wire.Put {
		return &wire.Put{ID: id, Importance: imp, Payload: payloadOf(id)}
	}
	want := map[object.ID]bool{}
	for _, id := range []object.ID{"seed-0", "seed-1", "seed-2"} {
		if res, ok := srv.execute(put(id)).(*wire.PutResult); !ok || !res.Admitted {
			t.Fatalf("seed put %s = %+v", id, res)
		}
		want[id] = true
	}
	ss := new(session)
	var buf []byte
	run := func(round int, get, del object.ID) uint64 {
		a, b, c, d := object.ID(fmt.Sprintf("a%d", round)), object.ID(fmt.Sprintf("b%d", round)),
			object.ID(fmt.Sprintf("c%d", round)), object.ID(fmt.Sprintf("d%d", round))
		var bodies [][]byte
		for _, m := range []wire.Message{
			put(a),
			&wire.Get{ID: get},
			&wire.Batch{Subs: []wire.Message{put(b), &wire.Delete{ID: del}, put(c)}},
			put(d),
		} {
			body, err := wire.Encode(m)
			if err != nil {
				t.Fatalf("Encode %T: %v", m, err)
			}
			bodies = append(bodies, body)
		}
		// A PUT frame cut short does not decode.
		bodies = append(bodies, bodies[0][:len(bodies[0])/2])
		// The run's bodies lie back to back in one buffer, as coalesce
		// leaves them.
		buf = buf[:0]
		for _, body := range bodies {
			buf = append(buf, body...)
		}
		at := 0
		for i, body := range bodies {
			bodies[i] = buf[at : at+len(body) : at+len(body)]
			at += len(body)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		outs := srv.dispatchGroup(ss, bodies)
		runtime.ReadMemStats(&after)

		if len(outs) != len(bodies) {
			t.Fatalf("round %d: %d outcomes for %d frames", round, len(outs), len(bodies))
		}
		admitted := func(at string, res wire.Message) {
			if pr, ok := res.(*wire.PutResult); !ok || !pr.Admitted {
				t.Errorf("round %d, %s = %+v, want an admitted PutResult", round, at, res)
			}
		}
		admitted("frame 0 (PUT)", outs[0].resp)
		if om, ok := outs[1].resp.(*wire.ObjectMsg); !ok || om.ID != get || !bytes.Equal(om.Payload, payloadOf(get)) {
			t.Errorf("round %d, frame 1 (GET %s) = %+v", round, get, outs[1].resp)
		}
		if br, ok := outs[2].resp.(*wire.BatchResult); !ok || len(br.Results) != 3 {
			t.Errorf("round %d, frame 2 (BATCH) = %+v, want 3 results", round, outs[2].resp)
		} else {
			admitted("BATCH sub 0 (PUT)", br.Results[0])
			if _, ok := br.Results[1].(*wire.OK); !ok {
				t.Errorf("round %d, BATCH sub 1 (DELETE %s) = %+v, want OK", round, del, br.Results[1])
			}
			admitted("BATCH sub 2 (PUT)", br.Results[2])
		}
		admitted("frame 3 (PUT)", outs[3].resp)
		if em, ok := outs[4].resp.(*wire.ErrorMsg); !ok || em.Code != wire.CodeBadRequest || outs[4].op != wire.OpInvalid {
			t.Errorf("round %d, frame 4 (undecodable) = %+v op %v, want CodeBadRequest", round, outs[4].resp, outs[4].op)
		}
		for i, op := range []wire.Op{wire.OpPut, wire.OpGet, wire.OpBatch, wire.OpPut} {
			if outs[i].op != op {
				t.Errorf("round %d, frame %d op = %v, want %v", round, i, outs[i].op, op)
			}
		}
		clear(outs)
		buf = releaseBuffer(buf)

		for _, id := range []object.ID{a, b, c, d} {
			want[id] = true
		}
		delete(want, del)
		for id := range want {
			om, ok := srv.execute(&wire.Get{ID: id}).(*wire.ObjectMsg)
			if !ok || !bytes.Equal(om.Payload, payloadOf(id)) {
				t.Errorf("after round %d, %s does not read back as put", round, id)
			}
		}
		if got := len(srv.Engine().Residents()); got != len(want) {
			t.Errorf("after round %d, %d residents, want %d", round, got, len(want))
		}
		return after.Mallocs - before.Mallocs
	}
	first := run(1, "seed-0", "seed-1")
	second := run(2, "b1", "seed-2")
	t.Logf("allocations per run: %d, then %d", first, second)
	if !raceEnabled && second > first {
		t.Errorf("the second run allocated %d times, more than the first's %d", second, first)
	}
}
