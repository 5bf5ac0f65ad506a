package store

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
)

// TestFairShareQuotaInvariant drives a FairShare-governed unit with a
// random multi-owner stream and checks after every operation that no owner
// ever holds more than their share.
func TestFairShareQuotaInvariant(t *testing.T) {
	const (
		capacity = 10_000
		share    = 0.4
	)
	owners := []string{"alice", "bob", "carol"}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			u, err := New(capacity, policy.FairShare{MaxFraction: share})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			now := time.Duration(0)
			for i := 0; i < 2000; i++ {
				now += time.Duration(rng.Intn(8)) * time.Hour
				owner := owners[rng.Intn(len(owners))]
				o, err := object.New(object.ID(fmt.Sprintf("%s/%05d", owner, i)),
					int64(1+rng.Intn(2000)), now,
					importance.TwoStep{
						Plateau: float64(1+rng.Intn(10)) / 10,
						Persist: time.Duration(rng.Intn(20)) * day,
						Wane:    time.Duration(rng.Intn(20)) * day,
					})
				if err != nil {
					t.Fatalf("object.New: %v", err)
				}
				o.SetOwner(owner)
				if _, err := u.Put(o, now); err != nil {
					t.Fatalf("Put: %v", err)
				}

				held := make(map[string]int64)
				for _, r := range u.Residents() {
					held[r.Owner()] += r.Size
				}
				quota := int64(share * capacity)
				for owner, bytes := range held {
					if bytes > quota {
						t.Fatalf("step %d: %s holds %d > quota %d", i, owner, bytes, quota)
					}
				}
				if u.Used()+u.Free() != u.Capacity() {
					t.Fatalf("step %d: accounting broken", i)
				}
			}
			// The unit served all three owners, not just one.
			held := make(map[string]bool)
			for _, r := range u.Residents() {
				held[r.Owner()] = true
			}
			if len(held) < 2 {
				t.Errorf("only %d owners resident at end", len(held))
			}
		})
	}
}
