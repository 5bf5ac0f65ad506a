package policy

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// The oracles below are independent, deliberately naive restatements of the
// admission rules, used for differential testing: each one fully sorts every
// resident it is handed and walks the result. They share no code with the
// planners, which select only the rank-prefix they need; the full sort
// survives here and nowhere else in the package.

// oracleRank returns the residents fully sorted by the Section 5.3 rank:
// current importance, expiring before never-expiring, remaining lifetime, ID.
func oracleRank(residents []*object.Object, now time.Duration) []*object.Object {
	out := append([]*object.Object(nil), residents...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if ai, bi := a.ImportanceAt(now), b.ImportanceAt(now); ai != bi {
			return ai < bi
		}
		ar, aok := a.Remaining(now)
		br, bok := b.Remaining(now)
		if aok != bok {
			return aok
		}
		if ar != br {
			return ar < br
		}
		return a.ID < b.ID
	})
	return out
}

// oracleResult is an oracle's decision plus the branch that produced it
// ("free", "preempt", "blocked", "exhausted" or "too-large"; FairShare adds
// "preempt-both" for victims from both stages), so the tests can assert that
// the random states reach every branch.
type oracleResult struct {
	Decision
	branch string
}

// oracleWalk frees need bytes from the sorted residents for an arrival of
// importance arriving: victims are taken in order while they are at
// importance zero or strictly below the arrival. A rejection carries reason.
func oracleWalk(sorted []*object.Object, need int64, arriving float64, now time.Duration, reason Reason) oracleResult {
	if need <= 0 {
		return oracleResult{Decision{Admit: true}, "free"}
	}
	var d Decision
	for _, o := range sorted {
		if need <= 0 {
			break
		}
		imp := o.ImportanceAt(now)
		if imp != 0 && imp >= arriving {
			return oracleResult{Decision{Reason: reason, HighestPreempted: imp}, "blocked"}
		}
		d.Victims = append(d.Victims, o)
		d.FreedBytes += o.Size
		if imp > d.HighestPreempted {
			d.HighestPreempted = imp
		}
		need -= o.Size
	}
	if need > 0 {
		return oracleResult{Decision{Reason: reason, HighestPreempted: d.HighestPreempted}, "exhausted"}
	}
	d.Admit = true
	return oracleResult{d, "preempt"}
}

// oraclePlan restates TemporalImportance.Plan.
func oraclePlan(view View, incoming *object.Object, now time.Duration) oracleResult {
	if incoming.Size > view.Capacity {
		return oracleResult{Decision{Reason: ReasonTooLarge}, "too-large"}
	}
	return oracleWalk(oracleRank(view.Residents, now), incoming.Size-view.Free, incoming.ImportanceAt(now), now, ReasonFull)
}

// without returns residents minus gone.
func without(residents, gone []*object.Object) []*object.Object {
	var kept []*object.Object
next:
	for _, r := range residents {
		for _, g := range gone {
			if r == g {
				continue next
			}
		}
		kept = append(kept, r)
	}
	return kept
}

// oraclePlanBatch applies oraclePlan member by member under the documented
// group semantics: each member sees the pre-batch residents minus the
// victims of earlier members, the space those victims and the free space
// left, and never an earlier member as a candidate.
func oraclePlanBatch(view View, incoming []*object.Object, now time.Duration) []oracleResult {
	out := make([]oracleResult, len(incoming))
	for k, o := range incoming {
		if o == nil {
			continue
		}
		out[k] = oraclePlan(view, o, now)
		if out[k].Admit {
			view.Residents = without(view.Residents, out[k].Victims)
			view.Free += out[k].FreedBytes - o.Size
		}
	}
	return out
}

// oracleFairShare restates FairShare.Plan: the owner's overflow comes out of
// the owner's own objects, the remaining shortfall out of everyone else's
// and the owner's surviving objects.
func oracleFairShare(p FairShare, view View, incoming *object.Object, now time.Duration) oracleResult {
	quota := int64(p.MaxFraction * float64(view.Capacity))
	if incoming.Size > quota {
		return oracleResult{Decision{Reason: ReasonTooLarge}, "too-large"}
	}
	var own []*object.Object
	var ownerUsed int64
	for _, o := range view.Residents {
		if o.Owner() == incoming.Owner() {
			own = append(own, o)
			ownerUsed += o.Size
		}
	}
	arriving := incoming.ImportanceAt(now)
	one := oracleWalk(oracleRank(own, now), ownerUsed+incoming.Size-quota, arriving, now, ReasonQuota)
	if !one.Admit {
		return one
	}
	rest := oracleRank(without(view.Residents, one.Victims), now)
	two := oracleWalk(rest, incoming.Size-view.Free-one.FreedBytes, arriving, now, ReasonFull)
	if two.branch == "blocked" {
		return two
	}
	// Admitted or exhausted, the boundary is the highest importance either
	// stage could preempt.
	if one.HighestPreempted > two.HighestPreempted {
		two.HighestPreempted = one.HighestPreempted
	}
	if two.Admit {
		two.Victims = append(one.Victims, two.Victims...)
		two.FreedBytes += one.FreedBytes
		switch {
		case len(one.Victims) > 0 && len(two.Victims) > len(one.Victims):
			two.branch = "preempt-both"
		case len(two.Victims) > 0:
			two.branch = "preempt"
		}
	}
	return two
}

// oracleFIFO restates FIFO.Plan: oldest first, importance never blocks.
func oracleFIFO(view View, incoming *object.Object, now time.Duration) oracleResult {
	if incoming.Size > view.Capacity {
		return oracleResult{Decision{Reason: ReasonTooLarge}, "too-large"}
	}
	sorted := append([]*object.Object(nil), view.Residents...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Arrival != sorted[j].Arrival {
			return sorted[i].Arrival < sorted[j].Arrival
		}
		return sorted[i].ID < sorted[j].ID
	})
	// An arrival above every possible importance is never blocked.
	return oracleWalk(sorted, incoming.Size-view.Free, 2, now, ReasonFull)
}

// sameDecision fails the test unless got matches want byte for byte: same
// verdict, same victims in the same order, same boundary, bytes and reason.
func sameDecision(t *testing.T, what string, got Decision, oracle oracleResult) {
	t.Helper()
	want := oracle.Decision
	if got.Admit != want.Admit || got.Reason != want.Reason ||
		got.HighestPreempted != want.HighestPreempted || got.FreedBytes != want.FreedBytes ||
		len(got.Victims) != len(want.Victims) {
		t.Fatalf("%s:\n got %+v\nwant %+v", what, got, want)
	}
	for i, v := range got.Victims {
		if v != want.Victims[i] {
			t.Fatalf("%s: victim %d = %s, oracle %s", what, i, v.ID, want.Victims[i].ID)
		}
	}
}

// oracleNow is the instant every random state is planned at.
const oracleNow = 40 * day

// randomImportance draws one of the eight function families from a small
// value grid so that ties are common: Constant and TwoStep plateaus share
// levels, Dirac and lapsed TwoSteps sit at zero, Constants and Piecewise
// functions ending above zero never expire, and Min and Product combine the
// others.
func randomImportance(t *testing.T, rng *rand.Rand) importance.Function {
	t.Helper()
	level := func() float64 { return float64(rng.Intn(6)) / 5 }
	days := func(n int) time.Duration { return time.Duration(rng.Intn(n)) * day }
	switch rng.Intn(9) {
	case 0:
		return importance.Constant{Level: level()}
	case 1:
		return importance.Dirac{}
	case 2:
		return importance.Linear{Start: float64(1+rng.Intn(5)) / 5, Expire: day + days(60)}
	case 3:
		return importance.Exponential{Start: level(), HalfLife: day + days(10), Expire: day + days(60)}
	case 4:
		hi, lo := level(), level()
		f, err := importance.NewPiecewise([]importance.Point{
			{Age: days(10), Value: max(hi, lo)}, {Age: 10*day + days(30), Value: min(hi, lo)},
		})
		if err != nil {
			t.Fatalf("NewPiecewise: %v", err)
		}
		return f
	case 5, 6:
		a := importance.TwoStep{Plateau: level(), Persist: days(30), Wane: days(30)}
		b := importance.Linear{Start: float64(1+rng.Intn(5)) / 5, Expire: day + days(60)}
		var f importance.Function
		var err error
		if rng.Intn(2) == 0 {
			f, err = importance.NewMin(a, b)
		} else {
			f, err = importance.NewProduct(a, b)
		}
		if err != nil {
			t.Fatalf("combine: %v", err)
		}
		return f
	default:
		return importance.TwoStep{Plateau: level(), Persist: days(30), Wane: days(30)}
	}
}

// randomView builds a unit state of up to maxResidents mixed-size residents.
// One state in eight overstates its capacity, so that an arrival can run out
// of candidates before its bytes are covered (the planners' defensive tail).
func randomView(t *testing.T, rng *rand.Rand, maxResidents int, owners []string) View {
	t.Helper()
	n := rng.Intn(maxResidents + 1)
	var residents []*object.Object
	var fns []importance.Function // half the residents share a function drawn before
	used := int64(0)
	for i := 0; i < n; i++ {
		if len(fns) == 0 || rng.Intn(2) == 0 {
			fns = append(fns, randomImportance(t, rng))
		}
		o, err := object.New(object.ID(fmt.Sprintf("r%06d", rng.Intn(1000)*1000+i)), int64(1+rng.Intn(300)),
			time.Duration(rng.Intn(40))*day, fns[rng.Intn(len(fns))])
		if err != nil {
			t.Fatalf("object.New: %v", err)
		}
		if len(owners) > 0 {
			o.SetOwner(owners[rng.Intn(len(owners))])
		}
		used += o.Size
		residents = append(residents, o)
	}
	free := int64(rng.Intn(200))
	if rng.Intn(3) == 0 {
		free = 0
	}
	view := View{Capacity: used + free, Free: free, Residents: residents}
	if rng.Intn(8) == 0 {
		view.Capacity += int64(1 + rng.Intn(500))
	}
	return view
}

// inRuns returns view with its residents handed over as a store hands them:
// grouped by importance function into runs, each run in arrival order.
func inRuns(t *testing.T, view View) View {
	t.Helper()
	out := View{Capacity: view.Capacity, Free: view.Free}
	runOf := map[string]int{}
	for _, o := range view.Residents {
		key, err := importance.Encode(o.Importance)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		i, ok := runOf[string(key)]
		if !ok {
			i = len(out.Runs)
			runOf[string(key)] = i
			out.Runs = append(out.Runs, nil)
		}
		out.Runs[i] = append(out.Runs[i], o)
	}
	for _, run := range out.Runs {
		sort.SliceStable(run, func(i, j int) bool { return run[i].Arrival < run[j].Arrival })
	}
	return out
}

// randomArrival builds an incoming object for view; sizes range from a
// sliver to just past the capacity.
func randomArrival(t *testing.T, rng *rand.Rand, id string, view View, owners []string) *object.Object {
	t.Helper()
	size := int64(1 + rng.Intn(int(view.Capacity)+20))
	level := float64(rng.Intn(6)) / 5
	switch rng.Intn(6) {
	case 0, 1, 2:
		size = int64(1 + rng.Intn(400))
	case 3:
		// The largest arrival, at the importance only importance-one
		// residents block: it must preempt every resident, and runs out of
		// them when the capacity is overstated.
		size, level = view.Capacity+int64(rng.Intn(2)), 1
	}
	if size == 0 { // an empty view of capacity zero
		size = 1
	}
	o, err := object.New(object.ID(id), size, oracleNow, importance.Constant{Level: level})
	if err != nil {
		t.Fatalf("object.New: %v", err)
	}
	if len(owners) > 0 {
		o.SetOwner(owners[rng.Intn(len(owners))])
	}
	return o
}

// oracleTrials is the number of seeded states each planner is checked on.
const oracleTrials = 5000

// residentsFor bounds the residents of a trial's state: every third state
// may hold far more than a plan usually selects from, so that long prefixes
// are covered too.
func residentsFor(trial int) int {
	if trial%3 == 2 {
		return 200
	}
	return 30
}

// TestTemporalImportanceMatchesOracle differentially tests Plan against the
// oracle over thousands of random unit states.
func TestTemporalImportanceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var p TemporalImportance
	outcomes := map[string]int{}
	for trial := 0; trial < oracleTrials; trial++ {
		view := randomView(t, rng, residentsFor(trial), nil)
		incoming := randomArrival(t, rng, "in", view, nil)
		want := oraclePlan(view, incoming, oracleNow)
		sameDecision(t, fmt.Sprintf("trial %d", trial), p.Plan(view, incoming, oracleNow), want)
		sameDecision(t, fmt.Sprintf("trial %d in runs", trial), p.Plan(inRuns(t, view), incoming, oracleNow), want)
		outcomes[want.branch]++
	}
	requireOutcomes(t, outcomes, "free", "preempt", "blocked", "exhausted", "too-large")
}

// TestPlanBatchMatchesOracle checks PlanBatch against the oracle applied
// member by member, on batches that mix free-space admits, preempting
// admits, rejects at a boundary, rejects by exhaustion, oversized and nil
// members.
func TestPlanBatchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var p TemporalImportance
	outcomes := map[string]int{}
	partial := 0
	for trial := 0; trial < oracleTrials; trial++ {
		view := randomView(t, rng, 60, nil)
		batch := make([]*object.Object, 1+rng.Intn(12))
		for k := range batch {
			if rng.Intn(10) == 0 {
				continue
			}
			batch[k] = randomArrival(t, rng, fmt.Sprintf("in%02d", k), view, nil)
			if rng.Intn(3) > 0 {
				batch[k].Size = int64(1 + rng.Intn(150))
			}
		}
		want := oraclePlanBatch(view, batch, oracleNow)
		got := p.PlanBatch(view, batch, oracleNow)
		fromRuns := p.PlanBatch(inRuns(t, view), batch, oracleNow)
		if len(got) != len(want) || len(fromRuns) != len(want) {
			t.Fatalf("trial %d: %d and %d decisions for %d members", trial, len(got), len(fromRuns), len(want))
		}
		admitted, rejected := 0, 0
		for k := range want {
			sameDecision(t, fmt.Sprintf("trial %d member %d", trial, k), got[k], want[k])
			sameDecision(t, fmt.Sprintf("trial %d member %d in runs", trial, k), fromRuns[k], want[k])
			if batch[k] == nil {
				continue
			}
			outcomes[want[k].branch]++
			if want[k].Admit {
				admitted++
			} else {
				rejected++
			}
		}
		if admitted > 0 && rejected > 0 {
			partial++
		}
	}
	requireOutcomes(t, outcomes, "free", "preempt", "blocked", "exhausted", "too-large")
	if partial < oracleTrials/10 {
		t.Errorf("only %d of %d batches were partly rejected", partial, oracleTrials)
	}
}

// TestFairShareMatchesOracle checks both FairShare stages against the
// oracle, over three owners and shares from 0.3 up; one state in four has
// no quota, which leaves the whole shortfall to the second stage.
func TestFairShareMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	owners := []string{"ann", "bob", ""}
	outcomes := map[string]int{}
	for trial := 0; trial < oracleTrials; trial++ {
		p := FairShare{MaxFraction: 1}
		if rng.Intn(4) > 0 {
			p.MaxFraction = float64(3+rng.Intn(7)) / 10
		}
		view := randomView(t, rng, 40, owners)
		incoming := randomArrival(t, rng, "in", view, owners)
		want := oracleFairShare(p, view, incoming, oracleNow)
		sameDecision(t, fmt.Sprintf("trial %d", trial), p.Plan(view, incoming, oracleNow), want)
		sameDecision(t, fmt.Sprintf("trial %d in runs", trial), p.Plan(inRuns(t, view), incoming, oracleNow), want)
		outcomes[want.branch+"/"+want.Reason.String()]++
	}
	// No "exhausted/quota": an owner's overflow exceeds the owner's own bytes
	// only for an arrival larger than the quota, which is too-large first.
	requireOutcomes(t, outcomes, "free/none", "preempt/none", "preempt-both/none", "blocked/quota",
		"blocked/full", "exhausted/full", "too-large/too-large")
}

// TestFIFOMatchesOracle checks the FIFO baseline, arrival ties included.
func TestFIFOMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var p FIFO
	outcomes := map[string]int{}
	for trial := 0; trial < oracleTrials; trial++ {
		view := randomView(t, rng, residentsFor(trial), nil)
		incoming := randomArrival(t, rng, "in", view, nil)
		want := oracleFIFO(view, incoming, oracleNow)
		sameDecision(t, fmt.Sprintf("trial %d", trial), p.Plan(view, incoming, oracleNow), want)
		sameDecision(t, fmt.Sprintf("trial %d in runs", trial), p.Plan(inRuns(t, view), incoming, oracleNow), want)
		outcomes[want.branch]++
	}
	requireOutcomes(t, outcomes, "free", "preempt", "exhausted", "too-large")
}

// requireOutcomes fails the test if any named branch was reached by fewer
// than ten of the random states.
func requireOutcomes(t *testing.T, outcomes map[string]int, names ...string) {
	t.Helper()
	for _, name := range names {
		if outcomes[name] < 10 {
			t.Errorf("outcome %q reached %d times; the generator no longer covers it (all: %v)",
				name, outcomes[name], outcomes)
		}
	}
}
