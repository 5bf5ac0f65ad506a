package besteffs_test

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"besteffs"
)

// Example shows the core reclamation loop: a small unit under pressure
// admits an important arrival by preempting the least important resident.
func Example() {
	unit, err := besteffs.NewUnit(100, besteffs.TemporalImportance{})
	if err != nil {
		log.Fatal(err)
	}

	cache, err := besteffs.NewObject("cache/trailer", 60, 0, besteffs.Dirac{})
	if err != nil {
		log.Fatal(err)
	}
	archive, err := besteffs.NewObject("tax/2026", 40, 0, besteffs.Constant{Level: 1})
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range []*besteffs.Object{cache, archive} {
		if _, err := unit.Put(o, 0); err != nil {
			log.Fatal(err)
		}
	}

	lecture, err := besteffs.NewObject("lectures/os-12", 50, 0,
		besteffs.TwoStep{Plateau: 1, Persist: 15 * besteffs.Day, Wane: 15 * besteffs.Day})
	if err != nil {
		log.Fatal(err)
	}
	d, err := unit.Put(lecture, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("admitted=%t victims=%d first=%s\n", d.Admit, len(d.Victims), d.Victims[0].ID)
	fmt.Printf("density=%.2f\n", unit.DensityAt(0))
	// Output:
	// admitted=true victims=1 first=cache/trailer
	// density=0.90
}

// ExampleTwoStep evaluates the paper's two-piece importance function over
// an object's life.
func ExampleTwoStep() {
	f, err := besteffs.NewTwoStep(1.0, 15*besteffs.Day, 15*besteffs.Day)
	if err != nil {
		log.Fatal(err)
	}
	for _, age := range []time.Duration{0, 15 * besteffs.Day, 22*besteffs.Day + 12*time.Hour, 30 * besteffs.Day} {
		fmt.Printf("day %4.1f: L = %.2f\n", age.Hours()/24, f.At(age))
	}
	// Output:
	// day  0.0: L = 1.00
	// day 15.0: L = 1.00
	// day 22.5: L = 0.50
	// day 30.0: L = 0.00
}

// ExampleParseImportance parses the CLI spec syntax.
func ExampleParseImportance() {
	f, err := besteffs.ParseImportance("twostep:p=0.5,persist=10d,wane=20d")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("L(0) = %.2f, L(20d) = %.2f\n", f.At(0), f.At(20*besteffs.Day))
	// Output:
	// L(0) = 0.50, L(20d) = 0.25
}

// ExampleUnit_Probe shows the density-feedback loop: a creator probes the
// unit before choosing an annotation.
func ExampleUnit_Probe() {
	unit, err := besteffs.NewUnit(100, besteffs.TemporalImportance{})
	if err != nil {
		log.Fatal(err)
	}
	resident, err := besteffs.NewObject("r", 100, 0, besteffs.Constant{Level: 0.6})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := unit.Put(resident, 0); err != nil {
		log.Fatal(err)
	}
	for _, level := range []float64{0.5, 0.7} {
		probe, err := besteffs.NewObject("probe", 50, 0, besteffs.Constant{Level: level})
		if err != nil {
			log.Fatal(err)
		}
		d := unit.Probe(probe, 0)
		fmt.Printf("importance %.1f: admissible=%t (boundary %.1f)\n",
			level, d.Admit, d.HighestPreempted)
	}
	// Output:
	// importance 0.5: admissible=false (boundary 0.6)
	// importance 0.7: admissible=true (boundary 0.6)
}

// ExampleFairShare is the paper's Section 1 fairness warning, demonstrated
// and fixed: "the system should restrict the importance functions for
// fairness, lest every user request infinite lifetime". Two users share one
// disk. The hoarder annotates everything at importance 1.0 forever; the
// scientist uses honest two-step lifetimes. Under the plain policy the
// hoarder freezes the scientist out; under FairShare (per-owner quotas over
// the same preemption rules) each user's data competes only within their
// share.
func ExampleFairShare() {
	const mb = int64(1) << 20
	honest, err := besteffs.NewTwoStep(1, 7*besteffs.Day, 7*besteffs.Day)
	if err != nil {
		log.Fatal(err)
	}
	users := []struct {
		name string
		imp  besteffs.ImportanceFunc
	}{
		{"hoarder", besteffs.Constant{Level: 1}},
		{"scientist", honest},
	}

	for _, setup := range []struct {
		label  string
		policy besteffs.Policy
	}{
		{"plain temporal-importance", besteffs.TemporalImportance{}},
		{"fair-share (50% per owner)", besteffs.FairShare{MaxFraction: 0.5}},
	} {
		unit, err := besteffs.NewUnit(200*mb, setup.policy)
		if err != nil {
			log.Fatal(err)
		}
		held := map[string]int64{}
		rejected := map[string]int{}
		rng := rand.New(rand.NewSource(1))

		// Interleaved arrivals over 60 days; both users keep producing.
		for day := 0; day < 60; day++ {
			now := time.Duration(day) * besteffs.Day
			for _, u := range users {
				id := besteffs.ObjectID(fmt.Sprintf("%s/%s/d%03d-%d", setup.label, u.name, day, rng.Intn(1000)))
				o, err := besteffs.NewObject(id, 8*mb, now, u.imp)
				if err != nil {
					log.Fatal(err)
				}
				o.SetOwner(u.name)
				d, err := unit.Put(o, now)
				if err != nil {
					log.Fatal(err)
				}
				if !d.Admit {
					rejected[u.name]++
				}
			}
		}
		for _, o := range unit.Residents() {
			held[o.Owner()] += o.Size
		}

		fmt.Printf("%s:\n", setup.label)
		for _, u := range users {
			fmt.Printf("  %-9s holds %3d MB, %2d arrivals rejected\n",
				u.name, held[u.name]/mb, rejected[u.name])
		}
		fmt.Printf("  density %.3f\n\n", unit.DensityAt(60*besteffs.Day))
	}
	fmt.Println("the quota confines the hoarder to their share; the scientist's honest")
	fmt.Println("annotations keep cycling inside the other half")
	// Output:
	// plain temporal-importance:
	//   hoarder   holds 200 MB, 35 arrivals rejected
	//   scientist holds   0 MB, 43 arrivals rejected
	//   density 1.000
	//
	// fair-share (50% per owner):
	//   hoarder   holds  96 MB, 48 arrivals rejected
	//   scientist holds  96 MB,  0 arrivals rejected
	//   density 0.874
	//
	// the quota confines the hoarder to their share; the scientist's honest
	// annotations keep cycling inside the other half
}

// ExampleUnit_Rejuvenate is the paper's Section 6 sensor scenario with
// rejuvenation triggers. A node with 512 KB of flash buffers raw readings
// at importance 1.0. Once a reading is processed, a trigger rejuvenates its
// raw form downward to a short two-step lifetime and stores a summary at
// moderate importance; when the base station acknowledges a summary, a
// second trigger demotes it to cache-like importance. The unit reclaims
// everything else on its own and no application ever issues a delete.
func ExampleUnit_Rejuvenate() {
	const kb = int64(1) << 10
	var evictions, rejections int
	unit, err := besteffs.NewUnit(512*kb, besteffs.TemporalImportance{},
		besteffs.WithEvictionHook(func(besteffs.Eviction) { evictions++ }),
		besteffs.WithRejectionHook(func(besteffs.Rejection) { rejections++ }),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Lifetimes for the three data states.
	rawCritical := besteffs.Constant{Level: 1} // unprocessed: never preemptible
	rawProcessed, err := besteffs.NewTwoStep(0.6, 2*time.Hour, 6*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	summaryPending, err := besteffs.NewTwoStep(0.8, 12*time.Hour, 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	summaryAcked, err := besteffs.NewTwoStep(0.2, 1*time.Hour, 3*time.Hour)
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	fmt.Println("hour  unprocessed  processed  acked  density  evicted  rejected")
	for hour := 0; hour < 48; hour++ {
		now := time.Duration(hour) * time.Hour

		// Each hour the sensor captures a raw reading burst (16-32 KB).
		raw, err := besteffs.NewObject(besteffs.ObjectID(fmt.Sprintf("raw/%03d", hour)),
			16*kb+int64(rng.Intn(int(16*kb))), now, rawCritical)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := unit.Put(raw, now); err != nil {
			log.Fatal(err)
		}

		// The CPU processes the backlog with a two-hour lag. Trigger 1:
		// demote the raw reading, store the summary.
		if hour >= 2 {
			done := hour - 2
			if _, err := unit.Rejuvenate(besteffs.ObjectID(fmt.Sprintf("raw/%03d", done)), rawProcessed, now); err == nil {
				summary, err := besteffs.NewObject(besteffs.ObjectID(fmt.Sprintf("sum/%03d", done)), 2*kb, now, summaryPending)
				if err != nil {
					log.Fatal(err)
				}
				if _, err := unit.Put(summary, now); err != nil {
					log.Fatal(err)
				}
			}
		}

		// The uplink is flaky: an acknowledgment arrives for a random older
		// summary 60% of the time. Trigger 2: demote the acked summary. A
		// not-found error means it was already reclaimed.
		if hour >= 4 && rng.Float64() < 0.6 {
			ackID := besteffs.ObjectID(fmt.Sprintf("sum/%03d", rng.Intn(hour-3)))
			_, _ = unit.Rejuvenate(ackID, summaryAcked, now)
		}

		if hour%6 == 5 {
			var rawPending, rawDone, acked int
			for _, o := range unit.Residents() {
				isRaw := o.ID[:3] == "raw"
				switch {
				case isRaw && o.Version == 1:
					rawPending++
				case isRaw:
					rawDone++
				case o.Version > 1:
					acked++
				}
			}
			fmt.Printf("%4d  %11d  %9d  %5d  %7.3f  %7d  %8d\n",
				hour, rawPending, rawDone, acked, unit.DensityAt(now), evictions, rejections)
		}
	}
	fmt.Printf("\nafter 48 hours on a 512 KB flash: %d evictions, %d rejections, %d residents\n",
		evictions, rejections, unit.Len())
	fmt.Println("unprocessed readings were never reclaimed (importance 1.0);")
	fmt.Println("processed data and acknowledged summaries drained automatically")
	// Output:
	// hour  unprocessed  processed  acked  density  evicted  rejected
	//    5            2          4      0    0.219        0         0
	//   11            2         10      2    0.277        0         0
	//   17            2         16      4    0.296        0         0
	//   23            2         17      5    0.290        5         0
	//   29            2         17      8    0.290       11         0
	//   35            2         16     11    0.301       18         0
	//   41            2         15     14    0.339       25         0
	//   47            2         13     17    0.327       33         0
	//
	// after 48 hours on a 512 KB flash: 33 evictions, 0 rejections, 61 residents
	// unprocessed readings were never reclaimed (importance 1.0);
	// processed data and acknowledged summaries drained automatically
}

// ExampleUnit_AdmissibleAt is the density-feedback loop of Sections 5.1.2
// and 5.2.3: the storage importance density tells a creator, before
// storing, how an annotation will fare. A unit is filled with two-step
// objects of mixed ages, then probed at several importance levels. For the
// levels it rejects, AdmissibleAt computes from the residents' decay alone
// when the unit will open up.
func ExampleUnit_AdmissibleAt() {
	const mb = 1 << 20
	unit, err := besteffs.NewUnit(200*mb, besteffs.TemporalImportance{})
	if err != nil {
		log.Fatal(err)
	}

	// Ages spread over the last 40 days: importance from 1.0 (on the
	// plateau) down to ~0.15 (deep into the wane).
	rng := rand.New(rand.NewSource(7))
	now := 40 * besteffs.Day
	lifetime, err := besteffs.NewTwoStep(1, 15*besteffs.Day, 30*besteffs.Day)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; unit.Free() >= 5*mb; i++ {
		arrival := now - time.Duration(rng.Intn(40))*besteffs.Day
		o, err := besteffs.NewObject(besteffs.ObjectID(fmt.Sprintf("fill/%03d", i)), 5*mb, arrival, lifetime)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := unit.Put(o, now); err != nil {
			log.Fatal(err)
		}
	}

	density := unit.DensityAt(now)
	fmt.Printf("storage importance density: %.3f\n", density)
	fmt.Println("probing candidate annotations (10 MB object):")
	fmt.Println()
	fmt.Println("importance  admissible  highest-preempted   guidance")
	for _, level := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
		probe, err := besteffs.NewObject("probe", 10*mb, now, besteffs.Constant{Level: level})
		if err != nil {
			log.Fatal(err)
		}
		d := unit.Probe(probe, now)
		guidance := "will be rejected: below the storage's full boundary"
		switch {
		case d.Admit && level > density:
			guidance = "comfortably above the density: expect long persistence"
		case d.Admit:
			guidance = "admitted, but close to the boundary: early reclamation likely"
		}
		fmt.Printf("   %4.2f       %-5t       %4.2f            %s\n",
			level, d.Admit, d.HighestPreempted, guidance)
	}

	// Temporal annotations make the future computable: for a rejected
	// level, ask when the unit will open up (no new arrivals assumed).
	fmt.Println()
	for _, level := range []float64{0.1, 0.25} {
		at, ok, err := unit.AdmissibleAt(10*mb, level, now, 40*besteffs.Day, besteffs.Day)
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			fmt.Printf("a %.2f-importance object becomes admissible on day %.0f (current residents' decay)\n",
				level, float64(at)/float64(besteffs.Day))
		} else {
			fmt.Printf("a %.2f-importance object stays blocked for the whole 40-day horizon\n", level)
		}
	}
	fmt.Println()
	fmt.Println("the gap between an object's importance and the density predicts its longevity;")
	fmt.Println("at density 1.0 the unit is full for every incoming object")
	// Output:
	// storage importance density: 0.760
	// probing candidate annotations (10 MB object):
	//
	// importance  admissible  highest-preempted   guidance
	//    0.10       false       0.30            will be rejected: below the storage's full boundary
	//    0.25       false       0.30            will be rejected: below the storage's full boundary
	//    0.50       true        0.43            admitted, but close to the boundary: early reclamation likely
	//    0.75       true        0.43            admitted, but close to the boundary: early reclamation likely
	//    0.90       true        0.43            comfortably above the density: expect long persistence
	//    1.00       true        0.43            comfortably above the density: expect long persistence
	//
	// a 0.10-importance object becomes admissible on day 50 (current residents' decay)
	// a 0.25-importance object becomes admissible on day 46 (current residents' decay)
	//
	// the gap between an object's importance and the density predicts its longevity;
	// at density 1.0 the unit is full for every incoming object
}
