package policy

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// countingLinear counts the At calls of the Linear it wraps.
type countingLinear struct {
	importance.Linear
	calls *int
}

func (f countingLinear) At(age time.Duration) float64 {
	*f.calls++
	return f.Linear.At(age)
}

// TestPlanReadsARunOnlyAsFarAsItsVictims counts the importance evaluations a
// plan makes over one run of residents with distinct arrivals. The arrival's
// own function is not counted. A preempting plan reads its victims and the
// one member behind them; a rejecting plan reads the member it is blocked by
// and the one behind it; a view of loose residents still reads every one.
func TestPlanReadsARunOnlyAsFarAsItsVictims(t *testing.T) {
	var p TemporalImportance
	for _, n := range []int{4096, 65536} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			calls := 0
			f := countingLinear{Linear: importance.Linear{Start: 1, Expire: 1000 * day}, calls: &calls}
			run := make([]*object.Object, n)
			for i := range run {
				run[i] = obj(t, fmt.Sprintf("r%06d", i), 128, time.Duration(i)*time.Second, f)
			}
			now := time.Duration(n) * time.Second
			runs := View{Capacity: int64(n) * 128, Runs: [][]*object.Object{run}}
			loose := View{Capacity: runs.Capacity, Residents: run}
			for _, victims := range []int{1, 3, prefixOnStack + 8} {
				in := obj(t, "in", int64(victims)*128, now, constImp(1))
				calls = 0
				d := p.Plan(runs, in, now)
				if !d.Admit || len(d.Victims) != victims {
					t.Fatalf("%d victims: plan %+v", victims, d)
				}
				for i, v := range d.Victims {
					if v != run[i] {
						t.Fatalf("victim %d = %s, want the oldest %s", i, v.ID, run[i].ID)
					}
				}
				if limit := victims + len(runs.Runs) + 1; calls > limit {
					t.Errorf("%d victims in one run: %d At calls, limit %d", victims, calls, limit)
				}
				calls = 0
				sameDecision(t, "loose", p.Plan(loose, in, now), oracleResult{Decision: d})
				if calls != n {
					t.Errorf("a loose view: %d At calls for %d residents", calls, n)
				}
			}
			low := obj(t, "low", 128, now, constImp(0.001))
			calls = 0
			d := p.Plan(runs, low, now)
			if limit := len(runs.Runs) + 1; calls > limit {
				t.Errorf("a rejection in one run: %d At calls, limit %d", calls, limit)
			}
			if d.Admit || d.Reason != ReasonFull || d.HighestPreempted != run[0].ImportanceAt(now) {
				t.Fatalf("an arrival below every resident: %+v", d)
			}
		})
	}
}

// TestPlanGroupFallbackMatchesOracle: a policy without PlanBatch is planned
// member by member, and a view in runs comes out of each member's victims
// still in runs, so later members decide as the oracle does.
func TestPlanGroupFallbackMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	admitted := 0
	for trial := 0; trial < oracleTrials; trial++ {
		view := randomView(t, rng, 60, nil)
		batch := make([]*object.Object, 1+rng.Intn(8))
		for k := range batch {
			if rng.Intn(10) > 0 {
				batch[k] = randomArrival(t, rng, fmt.Sprintf("in%02d", k), view, nil)
				batch[k].Size = int64(1 + rng.Intn(150))
			}
		}
		got := PlanGroup(FIFO{}, inRuns(t, view), batch, oracleNow)
		left := view
		for k, o := range batch {
			if o == nil {
				continue
			}
			want := oracleFIFO(left, o, oracleNow)
			sameDecision(t, fmt.Sprintf("trial %d member %d", trial, k), got[k], want)
			if want.Admit {
				left.Residents = without(left.Residents, want.Victims)
				left.Free += want.FreedBytes - o.Size
				admitted += len(want.Victims)
			}
		}
	}
	if admitted < oracleTrials {
		t.Errorf("only %d victims over %d groups; the groups no longer reach later members' planning", admitted, oracleTrials)
	}
}
