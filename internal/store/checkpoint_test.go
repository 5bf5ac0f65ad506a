package store

import (
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/journal"
	"besteffs/internal/object"
	"besteffs/internal/policy"
)

// newUnit builds a test unit that journals its history into recs, the way
// the live server does (puts and rejuvenations recorded by the caller,
// evictions by the hook).
func newJournaledUnit(t *testing.T, recs *[]journal.Record) *Unit {
	t.Helper()
	u, err := New(10_000, policy.TemporalImportance{},
		WithEvictionHook(func(e Eviction) {
			*recs = append(*recs, journal.Record{
				Kind: journal.KindEvict, At: e.Time, ID: e.Object.ID,
			})
		}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return u
}

func mustPut(t *testing.T, u *Unit, recs *[]journal.Record, id string, size int64, now time.Duration, imp importance.Function) {
	t.Helper()
	o, err := object.New(object.ID(id), size, now, imp)
	if err != nil {
		t.Fatalf("object.New %s: %v", id, err)
	}
	d, err := u.Put(o, now)
	if err != nil {
		t.Fatalf("Put %s: %v", id, err)
	}
	if !d.Admit {
		t.Fatalf("Put %s rejected", id)
	}
	*recs = append(*recs, journal.ObjectRecord(o))
}

// replayInto applies journal records to a fresh unit the way server
// recovery does: puts restore, evicts remove, rejuvenations re-annotate.
func replayInto(t *testing.T, u *Unit, recs []journal.Record) {
	t.Helper()
	for i, r := range recs {
		switch r.Kind {
		case journal.KindPut:
			o, err := r.Object()
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if err := u.Restore(o); err != nil {
				t.Fatalf("record %d restore: %v", i, err)
			}
		case journal.KindEvict, journal.KindDelete:
			if err := u.Remove(r.ID); err != nil {
				t.Fatalf("record %d remove: %v", i, err)
			}
		case journal.KindRejuvenate:
			if _, err := u.Rejuvenate(r.ID, r.Importance, r.At); err != nil {
				t.Fatalf("record %d rejuvenate: %v", i, err)
			}
		}
	}
}

// TestRejuvenateSurvivesCheckpointRoundTrip: a rejuvenated object's fresh
// importance function -- and its re-aged arrival -- must come back intact
// from a checkpoint written after the rejuvenation.
func TestRejuvenateSurvivesCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var recs []journal.Record
	u := newJournaledUnit(t, &recs)
	day := importance.Day
	mustPut(t, u, &recs, "keep", 1000, 0,
		importance.TwoStep{Plateau: 1, Persist: 5 * day, Wane: 5 * day})
	mustPut(t, u, &recs, "renew", 2000, time.Hour,
		importance.TwoStep{Plateau: 0.8, Persist: 2 * day, Wane: day})

	// Rejuvenate at day 3: new annotation ages from the rejuvenation
	// instant, version bumps.
	rejAt := 3 * day
	fresh, err := u.Rejuvenate("renew", importance.Constant{Level: 0.4}, rejAt)
	if err != nil {
		t.Fatalf("Rejuvenate: %v", err)
	}
	if fresh.Version != 2 || fresh.Arrival != rejAt {
		t.Fatalf("rejuvenated = v%d arrival %v, want v2 arrival %v", fresh.Version, fresh.Arrival, rejAt)
	}

	// Checkpoint the live state, then load it into a brand-new unit.
	snap := u.Residents()
	cp := journal.Checkpoint{CoversSeq: 1, Resume: rejAt}
	for _, o := range snap {
		cp.Objects = append(cp.Objects, journal.ObjectRecord(o))
	}
	if err := journal.WriteCheckpoint(dir, cp); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	loaded, _, err := journal.LoadLatestCheckpoint(dir)
	if err != nil {
		t.Fatalf("LoadLatestCheckpoint: %v", err)
	}
	u2 := newJournaledUnit(t, new([]journal.Record))
	objs := make([]*object.Object, 0, len(loaded.Objects))
	for _, r := range loaded.Objects {
		o, err := r.Object()
		if err != nil {
			t.Fatalf("checkpoint object: %v", err)
		}
		objs = append(objs, o)
	}
	if err := u2.LoadSnapshot(objs); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}

	got, err := u2.Get("renew")
	if err != nil {
		t.Fatalf("Get renew: %v", err)
	}
	if got.Version != 2 || got.Arrival != rejAt {
		t.Errorf("restored renew = v%d arrival %v, want v2 arrival %v", got.Version, got.Arrival, rejAt)
	}
	// The replacement function, not the original, must answer importance
	// queries: constant 0.4 regardless of age, where the original TwoStep
	// would be deep into its wane.
	for _, now := range []time.Duration{rejAt, rejAt + 10*day, rejAt + 100*day} {
		if imp := got.ImportanceAt(now); imp != 0.4 {
			t.Errorf("restored renew importance at %v = %v, want 0.4", now, imp)
		}
	}
	if kept, err := u2.Get("keep"); err != nil || kept.Version != 1 {
		t.Errorf("untouched object changed: %v, %v", kept, err)
	}
	if u2.Used() != u.Used() || u2.Len() != u.Len() {
		t.Errorf("restored unit = %d bytes / %d objects, want %d / %d",
			u2.Used(), u2.Len(), u.Used(), u.Len())
	}
}

// TestUpdateSurvivesCheckpointThenReplay covers the interleaving recovery
// actually faces: a checkpoint holding the pre-update state plus journal
// records for the update (self-eviction + new put) and a later
// rejuvenation. Replaying the tail over the checkpoint must land on the
// updated version with the rejuvenated importance intact.
func TestUpdateSurvivesCheckpointThenReplay(t *testing.T) {
	var recs []journal.Record
	u := newJournaledUnit(t, &recs)
	day := importance.Day
	mustPut(t, u, &recs, "doc", 1000, 0,
		importance.TwoStep{Plateau: 0.9, Persist: 10 * day, Wane: 10 * day})

	// Checkpoint now: everything so far is covered; recs from here on are
	// the post-checkpoint tail.
	snap := u.Residents()
	cp := journal.Checkpoint{CoversSeq: 1, Resume: 0}
	for _, o := range snap {
		cp.Objects = append(cp.Objects, journal.ObjectRecord(o))
	}
	tailStart := len(recs)

	// Update at hour 2: new bytes, version 2. The store reports the old
	// version through the eviction hook (self-preemption), and the server
	// journals the new version as a put -- mirror that here.
	newObj, err := object.New("doc", 1500, 2*time.Hour, importance.Constant{Level: 0.7})
	if err != nil {
		t.Fatalf("object.New: %v", err)
	}
	d, err := u.Update(newObj, 2*time.Hour)
	if err != nil || !d.Admit {
		t.Fatalf("Update = %+v, %v", d, err)
	}
	cur, err := u.Get("doc")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if cur.Version != 2 {
		t.Fatalf("updated version = %d, want 2", cur.Version)
	}
	recs = append(recs, journal.ObjectRecord(cur))

	// Rejuvenate the updated object at hour 5.
	if _, err := u.Rejuvenate("doc", importance.Constant{Level: 0.2}, 5*time.Hour); err != nil {
		t.Fatalf("Rejuvenate: %v", err)
	}
	recs = append(recs, journal.Record{
		Kind: journal.KindRejuvenate, At: 5 * time.Hour, ID: "doc",
		Importance: importance.Constant{Level: 0.2},
	})

	// Recovery: load the checkpoint, then replay the tail records.
	u2 := newJournaledUnit(t, new([]journal.Record))
	objs := make([]*object.Object, 0, len(cp.Objects))
	for _, r := range cp.Objects {
		o, err := r.Object()
		if err != nil {
			t.Fatalf("checkpoint object: %v", err)
		}
		objs = append(objs, o)
	}
	if err := u2.LoadSnapshot(objs); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	replayInto(t, u2, recs[tailStart:])

	got, err := u2.Get("doc")
	if err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
	// v1 -> v2 by the update, -> v3 by the rejuvenation.
	if got.Version != 3 || got.Size != 1500 {
		t.Errorf("recovered doc = v%d %dB, want v3 1500B", got.Version, got.Size)
	}
	if imp := got.ImportanceAt(100 * importance.Day); imp != 0.2 {
		t.Errorf("recovered importance = %v, want the rejuvenated 0.2", imp)
	}
	if u2.Used() != u.Used() || u2.Len() != u.Len() {
		t.Errorf("recovered unit = %d bytes / %d objects, want %d / %d",
			u2.Used(), u2.Len(), u.Used(), u.Len())
	}
}
