package store

import (
	"errors"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
)

func batchObj(t *testing.T, id object.ID, size int64, level float64) *object.Object {
	t.Helper()
	o, err := object.New(id, size, 0, importance.Constant{Level: level})
	if err != nil {
		t.Fatalf("object.New(%s): %v", id, err)
	}
	return o
}

func TestPutBatchAdmitsAndEvictsLikeSequentialPuts(t *testing.T) {
	var evicted []object.ID
	u, err := New(1000, policy.TemporalImportance{},
		WithEvictionHook(func(e Eviction) { evicted = append(evicted, e.Object.ID) }))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := u.Put(batchObj(t, "old", 600, 0.1), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	out := u.PutBatch([]*object.Object{
		batchObj(t, "a", 400, 0.5), // fits free space
		batchObj(t, "b", 600, 0.9), // preempts old
	}, 0)
	if out[0].Err != nil || !out[0].Decision.Admit {
		t.Fatalf("a = %+v", out[0])
	}
	if out[1].Err != nil || !out[1].Decision.Admit {
		t.Fatalf("b = %+v", out[1])
	}
	if len(evicted) != 1 || evicted[0] != "old" {
		t.Errorf("evicted = %v, want [old]", evicted)
	}
	if u.Len() != 2 || u.Used() != 1000 {
		t.Errorf("len=%d used=%d, want 2/1000", u.Len(), u.Used())
	}
	c := u.CountersSnapshot()
	if c.Admitted != 3 || c.Evicted != 1 || c.Rejected != 0 {
		t.Errorf("counters = %+v", c)
	}
}

func TestPutBatchDuplicatesFailIndividually(t *testing.T) {
	u, err := New(1000, policy.TemporalImportance{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := u.Put(batchObj(t, "resident", 100, 0.5), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	out := u.PutBatch([]*object.Object{
		batchObj(t, "resident", 100, 0.5), // duplicate of a resident
		batchObj(t, "twin", 100, 0.5),
		batchObj(t, "twin", 100, 0.5), // duplicate within the batch
		nil,
		batchObj(t, "ok", 100, 0.5),
	}, 0)
	if !errors.Is(out[0].Err, ErrDuplicateID) {
		t.Errorf("resident dup err = %v", out[0].Err)
	}
	if out[1].Err != nil || !out[1].Decision.Admit {
		t.Errorf("first twin = %+v", out[1])
	}
	if !errors.Is(out[2].Err, ErrDuplicateID) {
		t.Errorf("batch dup err = %v", out[2].Err)
	}
	if out[3].Err == nil {
		t.Error("nil object accepted")
	}
	if out[4].Err != nil || !out[4].Decision.Admit {
		t.Errorf("ok = %+v", out[4])
	}
	if u.Len() != 3 {
		t.Errorf("Len = %d, want 3 (resident, twin, ok)", u.Len())
	}
}

func TestPutBatchRejectionHooksFire(t *testing.T) {
	var rejected []object.ID
	u, err := New(500, policy.TemporalImportance{},
		WithRejectionHook(func(r Rejection) { rejected = append(rejected, r.Object.ID) }))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	out := u.PutBatch([]*object.Object{
		batchObj(t, "a", 500, 0.5),
		batchObj(t, "crowded-out", 500, 0.9), // sibling holds the space
	}, 0)
	if !out[0].Decision.Admit {
		t.Fatalf("a = %+v", out[0])
	}
	if out[1].Decision.Admit {
		t.Fatalf("crowded-out admitted over its sibling: %+v", out[1])
	}
	if len(rejected) != 1 || rejected[0] != "crowded-out" {
		t.Errorf("rejection hooks = %v", rejected)
	}
	if c := u.CountersSnapshot(); c.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", c.Rejected)
	}
}

func TestPutBatchFallbackPolicy(t *testing.T) {
	// FIFO has no PlanBatch; the sequential fallback must still deliver
	// group semantics through PutBatch.
	u, err := New(1000, policy.FIFO{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := u.Put(batchObj(t, "old", 1000, 0.1), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	out := u.PutBatch([]*object.Object{
		batchObj(t, "a", 1000, 0.5), // preempts old
		batchObj(t, "b", 1000, 0.5), // would need to preempt its sibling
	}, 0)
	if out[0].Err != nil || !out[0].Decision.Admit {
		t.Fatalf("a = %+v", out[0])
	}
	if out[1].Decision.Admit {
		t.Errorf("b admitted over its sibling: %+v", out[1])
	}
	if u.Len() != 1 {
		t.Errorf("Len = %d, want 1", u.Len())
	}
}

// panicOnce is a policy whose first Plan panics.
type panicOnce struct {
	policy.Policy
	panicked bool
}

func (p *panicOnce) Plan(v policy.View, o *object.Object, now time.Duration) policy.Decision {
	if !p.panicked {
		p.panicked = true
		panic("planner fault")
	}
	return p.Policy.Plan(v, o, now)
}

// TestPutBatchScratchSurvivesAPanic: the unit's admission scratch is
// emptied however PutBatch ends, so a group whose planning panicked leaves
// no ID behind to refuse the next group as "earlier in batch".
func TestPutBatchScratchSurvivesAPanic(t *testing.T) {
	u, err := New(1000, &panicOnce{Policy: policy.FIFO{}})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the planner's panic did not reach the caller")
			}
		}()
		u.PutBatch([]*object.Object{batchObj(t, "a", 100, 0.5)}, 0)
	}()
	out := u.PutBatch([]*object.Object{batchObj(t, "a", 100, 0.5)}, 0)
	if out[0].Err != nil || !out[0].Decision.Admit {
		t.Fatalf("the retried put = %+v, want admitted", out[0])
	}
}
