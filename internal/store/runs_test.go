package store

import (
	"fmt"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
)

// countingFn counts the At calls of the function it wraps.
type countingFn struct {
	importance.Function
	calls int
}

func (f *countingFn) At(age time.Duration) float64 {
	f.calls++
	return f.Function.At(age)
}

// TestSweepReadsOnlyWhatHasExpired: an expiry sweep over 4096 residents in two
// runs, three of them expired, evaluates each expired resident twice (once to
// find it, once for its eviction record) and each run's first live member
// once, and never reaches the other residents.
func TestSweepReadsOnlyWhatHasExpired(t *testing.T) {
	short := &countingFn{Function: importance.Linear{Start: 1, Expire: 10 * day}}
	long := &countingFn{Function: importance.TwoStep{Plateau: 0.5, Persist: 30 * day, Wane: 30 * day}}
	u := newUnit(t, 4096*128, policy.TemporalImportance{})
	put := func(i int, arrival time.Duration, f *countingFn) {
		t.Helper()
		if _, err := u.Put(mkObj(t, fmt.Sprintf("o%04d", i), 128, arrival, f), arrival); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Expired at now: two short ones and one long one, the oldest of their
	// runs. Every other resident arrived days before now and is live.
	now := 60*day + 3*time.Hour
	put(0, 0, short)
	put(1, time.Hour, short)
	put(2, 2*time.Hour, long)
	for i := 3; i < 4096; i++ {
		f := short
		if i%2 == 0 {
			f = long
		}
		put(i, 55*day+time.Duration(i)*time.Second, f)
	}
	// A counting wrapper has no encoding, so each resident holding one got a
	// run of its own. File them into one run per wrapper, in arrival order
	// (the order they were put in), under a key of the wrapper's own.
	u.mu.Lock()
	u.runs, u.runMeta, u.runOf, u.runAt, u.freeHandles = nil, nil, map[string]int{}, nil, nil
	for slot, o := range u.order {
		key := []byte{0, 's'}
		if o.Importance == importance.Function(long) {
			key = []byte{0, 'l'}
		}
		u.linkRunLocked(slot, key)
	}
	u.mu.Unlock()
	short.calls, long.calls = 0, 0
	dropped := u.DropExpired(now)
	calls := short.calls + long.calls
	if dropped != 3 {
		t.Fatalf("the sweep dropped %d residents, want 3", dropped)
	}
	for _, id := range []string{"o0000", "o0001", "o0002"} {
		if _, err := u.Get(object.ID(id)); err == nil {
			t.Errorf("%s is still resident", id)
		}
	}
	if limit := 2*dropped + len(u.runs); calls > limit {
		t.Errorf("the sweep made %d At calls, limit %d", calls, limit)
	}
}

// TestViewTakesTheSlotsWhenFunctionsAreNotShared: a unit hands the planner its
// runs while they are at most half as many as its residents, and its slot
// slice once most residents have a function of their own.
func TestViewTakesTheSlotsWhenFunctionsAreNotShared(t *testing.T) {
	u := newUnit(t, 64*128, policy.TemporalImportance{})
	put := func(i int, f importance.Function) {
		t.Helper()
		at := time.Duration(i) * time.Second
		if _, err := u.Put(mkObj(t, fmt.Sprintf("o%02d", i), 128, at, f), at); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	view := func() policy.View {
		u.mu.Lock()
		defer u.mu.Unlock()
		return u.viewLocked()
	}
	for i := 0; i < 32; i++ {
		put(i, importance.Linear{Start: 1, Expire: 10 * day})
	}
	// One shared run and then one run per resident: 31 runs for 62
	// residents are still read as runs, 32 for 63 are not.
	for i := 32; i < 63; i++ {
		put(i, importance.Linear{Start: 1, Expire: 10*day + time.Duration(i)*time.Millisecond})
		v, n, runs := view(), i+1, i-30
		wantRuns, wantLoose := runs, 0
		if 2*runs > n {
			wantRuns, wantLoose = 0, n
		}
		if len(v.Runs) != wantRuns || len(v.Residents) != wantLoose {
			t.Fatalf("%d residents in %d runs: a view of %d runs and %d loose residents, want %d and %d",
				n, runs, len(v.Runs), len(v.Residents), wantRuns, wantLoose)
		}
	}
}
