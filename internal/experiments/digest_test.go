package experiments

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"
	"time"

	"besteffs/internal/object"
)

// The Section 5.3 experiments run the placement rule and the push-sum
// aggregation thousands of times from one seed, so a digest of everything
// they observe -- where objects landed, what was refused, what every class
// lost and when, the exact and the gossiped density -- pins the rule's
// behaviour bit for bit: a placement that picks a different unit on a tie,
// draws one more random number, or adds two shares in another order changes
// the digest. Floats are hashed by bit pattern, not by a printed rounding.

func hashFloats(h hash.Hash, vs ...float64) {
	for _, v := range vs {
		fmt.Fprintf(h, "%016x,", math.Float64bits(v))
	}
}

// hashOutcomes folds the per-class outcomes in, in class order.
func hashOutcomes(h hash.Hash, byClass map[object.Class]*ClassOutcome) {
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, int(c))
	}
	sort.Ints(classes)
	for _, c := range classes {
		o := byClass[object.Class(c)]
		fmt.Fprintf(h, "class=%d gen=%d rej=%d ev=%d:", c, o.Generated, o.Rejected, len(o.Evictions))
		for _, e := range o.Evictions {
			hashFloats(h, e.EvictionDay, e.LifetimeDays, e.Importance)
		}
	}
}

func TestUniWideDigestPinned(t *testing.T) {
	runs, err := RunUniWide(UniWideConfig{
		Seed: 9, Nodes: 15, Courses: 10, Years: 1,
		NodeCapacities: []int64{10 * GB, 20 * GB},
		DensityProbe:   10 * 24 * time.Hour,
	})
	if err != nil {
		t.Fatalf("RunUniWide: %v", err)
	}
	h := sha256.New()
	var rejections int64
	for _, r := range runs {
		fmt.Fprintf(h, "cap=%d placed=%d rejected=%d rounds=%d;",
			r.NodeCapacity, r.Placements, r.ClusterRejections, r.GossipRounds)
		hashFloats(h, r.FinalAvgDensity, r.GossipDensity)
		for _, p := range r.AvgDensity {
			hashFloats(h, p.V)
		}
		hashOutcomes(h, r.ByClass)
		rejections += r.ClusterRejections
	}
	if rejections == 0 {
		t.Error("config exercises no cluster-wide rejection; the digest would not cover that path")
	}
	const want = "8ae17516ff4bc3b5179763091fc0d9f576dd0dbc1aab6214c08396f91f276442"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("uniwide digest = %s, want %s", got, want)
	}
}

func TestChurnDigestPinned(t *testing.T) {
	res, err := RunChurn(ChurnConfig{
		Seed: 3, Nodes: 12, Courses: 10, Years: 2,
		InitialCapacity: 10 * GB,
	})
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	h := sha256.New()
	for _, y := range res.Years {
		fmt.Fprintf(h, "year=%d rejected=%d replaced=%d n=%d;",
			y.Year, y.StudentRejected, y.Replacements, y.StudentLifetime.Count)
		hashFloats(h, y.TotalCapacityGB, y.AvgDensity, y.StudentLifetime.Median)
	}
	hashOutcomes(h, res.ByClass)
	if res.ByClass[object.ClassStudent].Rejected == 0 || len(res.ByClass[object.ClassStudent].Evictions) == 0 {
		t.Error("config exercises no rejection or no eviction; the digest would not cover that path")
	}
	const want = "f105a01db1b410afad7d6b5f25ec55d191149d53b0faf7b6b1b02f0e258ae8e8"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("churn digest = %s, want %s", got, want)
	}
}
