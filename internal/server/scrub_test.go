package server

import (
	"bytes"
	"context"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"besteffs/internal/blob"
	"besteffs/internal/importance"
	"besteffs/internal/journal"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/telemetry"
	"besteffs/internal/wire"
)

// scrubNode builds a WAL-backed node over an in-memory blob store with
// three residents, returning the pieces the scrub tests poke at.
func scrubNode(t *testing.T, dataDir string) (*Server, *blob.MemStore, *manualClock) {
	t.Helper()
	mem := blob.NewMemStore()
	wal, err := journal.OpenWAL(filepath.Join(dataDir, WALDirName))
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	t.Cleanup(func() { wal.Close() })
	clock := &manualClock{}
	srv, err := New(EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}},
		WithClock(clock.Now), WithWAL(wal), WithBlobStore(mem), WithLogger(quietLogger()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, id := range []string{"a", "b", "c"} {
		res := srv.execute(&wire.Put{
			ID: object.ID(id), Importance: importance.Constant{Level: 0.9},
			Payload: []byte("payload-" + id),
		})
		if pr, ok := res.(*wire.PutResult); !ok || !pr.Admitted {
			t.Fatalf("Put %s = %+v", id, res)
		}
		clock.Advance(time.Hour)
	}
	return srv, mem, clock
}

// wantEvents requires the flight recorder's events of one kind to be exactly
// want, in order, each rendered "ID: detail".
func wantEvents(t *testing.T, srv *Server, kind telemetry.EventKind, want ...string) {
	t.Helper()
	var got []string
	for _, e := range srv.Events().Snapshot() {
		if e.Kind == kind {
			got = append(got, e.ID+": "+e.Detail)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s events = %q, want %q", kind, got, want)
	}
}

// replicaOf is a Replicator holding one good copy, for the corrupt-get heal.
type replicaOf struct{ rep *wire.Replicate }

func (r replicaOf) PushSync(context.Context, *wire.Replicate) int { return 0 }
func (r replicaOf) Recover(_ context.Context, id object.ID) (*wire.Replicate, error) {
	if id != r.rep.ID {
		return nil, blob.ErrNotFound
	}
	return r.rep, nil
}
func (r replicaOf) Status() *wire.RepairStatusResult { return &wire.RepairStatusResult{} }
func (r replicaOf) Threshold() float64               { return 2 } // above any importance: no pushes

func TestScrubQuarantinesCorruptPayload(t *testing.T) {
	dataDir := t.TempDir()
	srv, mem, _ := scrubNode(t, dataDir)
	if err := mem.Corrupt("b"); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	pass, err := srv.ScrubNow(context.Background())
	if err != nil {
		t.Fatalf("ScrubNow: %v", err)
	}
	if pass.Checked != 3 || pass.Corrupt != 1 || pass.Missing != 0 {
		t.Errorf("pass = %+v, want checked 3 corrupt 1 missing 0", pass)
	}
	if _, err := srv.engine.Get("b"); err == nil {
		t.Error("corrupt object still resident after scrub")
	}
	if srv.engine.Len() != 2 {
		t.Errorf("residents = %d, want 2", srv.engine.Len())
	}
	stats := srv.ScrubStats()
	if stats.Passes != 1 || stats.Corrupt != 1 || stats.Checked != 3 {
		t.Errorf("ScrubStats = %+v", stats)
	}
	wantEvents(t, srv, telemetry.EventQuarantine, "b: blob: corrupt payload: b")

	// The quarantine was journaled: a restart must not resurrect b.
	rec, err := New(EngineConfig{Capacity: 1 << 20, Policy: policy.TemporalImportance{}}, WithLogger(quietLogger()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rstats, err := rec.RestoreDir(dataDir)
	if err != nil {
		t.Fatalf("RestoreDir: %v", err)
	}
	if rec.engine.Len() != 2 {
		t.Errorf("recovered %d residents, want 2 (stats %+v)", rec.engine.Len(), rstats)
	}
	if _, err := rec.engine.Get("b"); err == nil {
		t.Error("quarantined object resurrected by replay")
	}
}

func TestScrubQuarantinesMissingPayload(t *testing.T) {
	srv, mem, _ := scrubNode(t, t.TempDir())
	// Payload vanished but the resident remains: damage, not a race.
	if err := mem.Delete("c"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	pass, err := srv.ScrubNow(context.Background())
	if err != nil {
		t.Fatalf("ScrubNow: %v", err)
	}
	if pass.Missing != 1 || pass.Corrupt != 0 {
		t.Errorf("pass = %+v, want missing 1 corrupt 0", pass)
	}
	if srv.ScrubStats().Missing != 1 {
		t.Errorf("ScrubStats = %+v", srv.ScrubStats())
	}
}

func TestGetQuarantinesCorruptPayload(t *testing.T) {
	srv, mem, _ := scrubNode(t, t.TempDir())
	if err := mem.Corrupt("a"); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	res := srv.execute(&wire.Get{ID: "a"})
	em, ok := res.(*wire.ErrorMsg)
	if !ok || em.Code != wire.CodeNotFound {
		t.Fatalf("Get corrupt object = %+v, want NotFound error", res)
	}
	if _, err := srv.engine.Get("a"); err == nil {
		t.Error("corrupt object still resident after Get")
	}
	if got := srv.ScrubStats().Corrupt; got != 1 {
		t.Errorf("corrupt counter = %d, want 1", got)
	}
	// The slot is free again: a new put of the same ID must succeed.
	res = srv.execute(&wire.Put{
		ID: "a", Importance: importance.Constant{Level: 0.9},
		Payload: []byte("fresh bytes"),
	})
	if pr, ok := res.(*wire.PutResult); !ok || !pr.Admitted {
		t.Fatalf("re-put after quarantine = %+v", res)
	}

	// With a replica reachable the same get heals: the object is quarantined,
	// restored from the good copy and served, and both decisions are recorded.
	good := []byte("payload-b")
	srv.SetRepair(replicaOf{&wire.Replicate{
		ID: "b", Version: 1, Importance: importance.Constant{Level: 0.9}, Payload: good,
	}})
	if err := mem.Corrupt("b"); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	res = srv.execute(&wire.Get{ID: "b"})
	if om, ok := res.(*wire.ObjectMsg); !ok || !bytes.Equal(om.Payload, good) {
		t.Fatalf("Get corrupt object with a replica = %+v, want the healed payload", res)
	}
	if got, err := mem.Get("b"); err != nil || !bytes.Equal(got, good) {
		t.Errorf("local copy after heal = %q, %v; want the good bytes", got, err)
	}
	wantEvents(t, srv, telemetry.EventHeal, "b: healed from replica")
	wantEvents(t, srv, telemetry.EventQuarantine, "a: blob: corrupt payload: a", "b: blob: corrupt payload: b")
}
