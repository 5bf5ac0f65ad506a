package experiments

import (
	"fmt"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/sim"
	"besteffs/internal/stats"
	"besteffs/internal/store"
)

// MixedConfig parameterizes the multi-application experiment: the follow-up
// work the paper names but defers ("We leave the study of simultaneous and
// different applications vying for storage to follow up work", Section 1).
// Three applications with honest but different annotations share one disk:
//
//   - an archiver storing financial-record-like objects at importance 1.0
//     forever (the paper's non-preemptible class);
//   - a lecture recorder using the Section 5.1 two-step function;
//   - a web cache writing Dirac objects (importance zero from birth).
//
// The abstract's headline behaviour should emerge: "the storage appears
// full for less important objects" -- the cache churns freely inside the
// zero-importance pool while space exists, then starves as durable data
// accumulates, the archiver is never touched, and the lecture app cycles in
// between.
type MixedConfig struct {
	// Seed drives the workload randomness.
	Seed int64
	// Horizon is the simulated span (default one year).
	Horizon time.Duration
	// Capacity is the disk size (default 80 GB).
	Capacity int64
	// ArchiveGBPerDay, LectureGBPerDay and CacheGBPerDay set each
	// application's daily volume (defaults 0.1, 3, 5).
	ArchiveGBPerDay, LectureGBPerDay, CacheGBPerDay float64
}

// MixedApp is one application's outcome.
type MixedApp struct {
	// Name identifies the application.
	Name string
	// Offered, Admitted, Rejected and Evicted count objects.
	Offered, Admitted, Rejected, Evicted int
	// Lifetime summarizes achieved lifetimes in days (evicted objects).
	Lifetime stats.Summary
	// ResidentBytesAtEnd is the application's footprint at the end.
	ResidentBytesAtEnd int64
}

// MixedResult is the full run.
type MixedResult struct {
	// Apps holds per-application outcomes in archiver/lecture/cache
	// order.
	Apps []MixedApp
	// CacheAdmitRateByQuarter tracks the squeeze: the cache's admission
	// rate per quarter of the run.
	CacheAdmitRateByQuarter []float64
	// FinalDensity is the density at the end.
	FinalDensity float64
}

// RunMixed executes the experiment.
func RunMixed(cfg MixedConfig) (MixedResult, error) {
	if cfg.Horizon == 0 {
		cfg.Horizon = 365 * Day
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = 80 * GB
	}
	if cfg.ArchiveGBPerDay == 0 {
		cfg.ArchiveGBPerDay = 0.1
	}
	if cfg.LectureGBPerDay == 0 {
		cfg.LectureGBPerDay = 3
	}
	if cfg.CacheGBPerDay == 0 {
		cfg.CacheGBPerDay = 5
	}

	type appSpec struct {
		name     string
		gbPerDay float64
		perDay   int // objects per day
		imp      importanceFunction
	}
	apps := []appSpec{
		{"archiver", cfg.ArchiveGBPerDay, 2, importance.Constant{Level: 1}},
		{"lecture", cfg.LectureGBPerDay, 6, twoStep15x15},
		{"cache", cfg.CacheGBPerDay, 20, importance.Dirac{}},
	}
	outcomes := make(map[string]*MixedApp, len(apps))
	ordered := make([]*MixedApp, len(apps))
	for i, a := range apps {
		out := &MixedApp{Name: a.name}
		outcomes[a.name] = out
		ordered[i] = out
	}
	var lifetimes = map[string][]float64{}

	unit, err := store.New(cfg.Capacity, policy.TemporalImportance{},
		store.WithEvictionHook(func(e store.Eviction) {
			out := outcomes[e.Object.Owner()]
			if out == nil {
				return
			}
			out.Evicted++
			lifetimes[e.Object.Owner()] = append(lifetimes[e.Object.Owner()], days(e.LifetimeAchieved))
		}),
		store.WithRejectionHook(func(r store.Rejection) {
			if out := outcomes[r.Object.Owner()]; out != nil {
				out.Rejected++
			}
		}),
	)
	if err != nil {
		return MixedResult{}, fmt.Errorf("experiments: mixed: %w", err)
	}

	eng := sim.NewEngine()
	rng := newRng(cfg.Seed)
	quarter := cfg.Horizon / 4
	cacheOffered := make([]int, 4)
	cacheAdmitted := make([]int, 4)

	seq := 0
	for day := time.Duration(0); day < cfg.Horizon; day += Day {
		for _, app := range apps {
			size := int64(app.gbPerDay / float64(app.perDay) * float64(GB))
			for k := 0; k < app.perDay; k++ {
				seq++
				id := object.ID(fmt.Sprintf("%s/%07d", app.name, seq))
				at := day + time.Duration(rng.Intn(24*60))*time.Minute
				app := app
				err := eng.Schedule(at, func(now time.Duration) {
					o, err := object.New(id, size, now, app.imp)
					if err != nil {
						return
					}
					o.SetOwner(app.name)
					out := outcomes[app.name]
					out.Offered++
					d, err := unit.Put(o, now)
					if err != nil {
						return
					}
					if d.Admit {
						out.Admitted++
					}
					if app.name == "cache" {
						q := int(now / quarter)
						if q > 3 {
							q = 3
						}
						cacheOffered[q]++
						if d.Admit {
							cacheAdmitted[q]++
						}
					}
				})
				if err != nil {
					return MixedResult{}, fmt.Errorf("experiments: mixed: %w", err)
				}
			}
		}
	}
	eng.Run(cfg.Horizon)

	res := MixedResult{FinalDensity: unit.DensityAt(cfg.Horizon)}
	for _, o := range unit.Residents() {
		if out := outcomes[o.Owner()]; out != nil {
			out.ResidentBytesAtEnd += o.Size
		}
	}
	for _, out := range ordered {
		if vals := lifetimes[out.Name]; len(vals) > 0 {
			if out.Lifetime, err = stats.Summarize(vals); err != nil {
				return MixedResult{}, err
			}
		}
		res.Apps = append(res.Apps, *out)
	}
	for q := 0; q < 4; q++ {
		rate := 0.0
		if cacheOffered[q] > 0 {
			rate = float64(cacheAdmitted[q]) / float64(cacheOffered[q])
		}
		res.CacheAdmitRateByQuarter = append(res.CacheAdmitRateByQuarter, rate)
	}
	return res, nil
}
