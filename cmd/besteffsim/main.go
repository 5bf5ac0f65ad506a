// Command besteffsim replays an arrival trace against a simulated storage
// unit and reports what the reclamation policy did: admissions, rejections,
// evictions, achieved lifetimes, and the storage importance density. It is
// the what-if tool for annotation design -- record or write a trace, then
// sweep policies and capacities over it.
//
// Usage:
//
//	besteffsim -trace FILE [-capacity BYTES] [-policy NAME] [-share F]
//	           [-horizon DUR] [-density-csv FILE]
//
// The trace format is CSV with header "t,id,size_bytes,importance,owner,
// class"; durations accept the day extension ("30d") and the importance
// column uses the spec syntax ("twostep:p=1,persist=15d,wane=15d"). See
// internal/workload.ReadTrace.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/metrics"
	"besteffs/internal/plot"
	"besteffs/internal/policy"
	"besteffs/internal/sim"
	"besteffs/internal/stats"
	"besteffs/internal/store"
	"besteffs/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "besteffsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("besteffsim", flag.ContinueOnError)
	tracePath := fs.String("trace", "", "arrival trace CSV (required)")
	capacity := fs.Int64("capacity", 80<<30, "unit capacity in bytes")
	policyName := fs.String("policy", "temporal", "admission policy: temporal, fifo, traditional or fair-share")
	share := fs.Float64("share", 0.5, "per-owner fraction for -policy fair-share")
	horizonStr := fs.String("horizon", "365d", "simulated span (Go duration, day extension allowed)")
	densityCSV := fs.String("density-csv", "", "write hourly density samples to this CSV file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" {
		fs.Usage()
		return fmt.Errorf("need -trace")
	}
	horizon, err := importance.ParseDuration(*horizonStr)
	if err != nil {
		return err
	}
	pol, err := policy.ByName(*policyName, *share)
	if err != nil {
		return err
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		return fmt.Errorf("open trace: %w", err)
	}
	rows, err := workload.ReadTrace(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("trace %s has no arrivals", *tracePath)
	}

	var (
		lifetimes  []float64
		reclaimImp []float64
		rejections int
	)
	unit, err := store.New(*capacity, pol,
		store.WithEvictionHook(func(e store.Eviction) {
			lifetimes = append(lifetimes, e.LifetimeAchieved.Hours()/24)
			reclaimImp = append(reclaimImp, e.Importance)
		}),
		store.WithRejectionHook(func(store.Rejection) { rejections++ }),
	)
	if err != nil {
		return err
	}

	eng := sim.NewEngine()
	density := metrics.NewSeries("density")
	if err := eng.Every(time.Hour, time.Hour, horizon, func(now time.Duration) {
		density.Add(now, unit.DensityAt(now))
	}); err != nil {
		return err
	}
	replay := &workload.Replay{Rows: rows}
	skipped, err := replay.Install(eng, workload.UnitSink{Unit: unit}, horizon)
	if err != nil {
		return err
	}
	eng.Run(horizon)
	if err := replay.Err(); err != nil {
		return err
	}

	counters := unit.CountersSnapshot()
	fmt.Printf("trace: %d arrivals (%d beyond horizon %s)\n", len(rows), skipped, horizon)
	fmt.Printf("policy %s on %d bytes:\n", pol.Name(), *capacity)
	fmt.Printf("  admitted %d, rejected %d, evicted %d, resident %d\n",
		counters.Admitted, rejections, counters.Evicted, unit.Len())
	if len(lifetimes) > 0 {
		s, err := stats.Summarize(lifetimes)
		if err != nil {
			return err
		}
		fmt.Printf("  lifetime achieved (days): min %.1f, median %.1f, mean %.1f, max %.1f\n",
			s.Min, s.Median, s.Mean, s.Max)
		ri, err := stats.Summarize(reclaimImp)
		if err != nil {
			return err
		}
		fmt.Printf("  importance at reclamation: min %.2f, median %.2f, max %.2f\n",
			ri.Min, ri.Median, ri.Max)
	}
	final := unit.DensityAt(horizon)
	fmt.Printf("  final density %.4f\n", final)

	if pts := density.Points(); len(pts) > 0 {
		chart := plot.Chart{
			Title: "storage importance density", XLabel: "day", YLabel: "density",
			Height: 10, YFixed: true, YMin: 0, YMax: 1,
		}
		series := make([]plot.Point, len(pts))
		for i, p := range pts {
			series[i] = plot.Point{X: p.T.Hours() / 24, Y: p.V}
		}
		chart.Add("density", series)
		fmt.Print(chart.Render())
	}
	if *densityCSV != "" {
		out, err := os.Create(*densityCSV)
		if err != nil {
			return fmt.Errorf("create density csv: %w", err)
		}
		if err := density.CSV(out); err != nil {
			//lint:ignore uncheckederr the CSV write error is the one worth reporting
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return fmt.Errorf("close density csv: %w", err)
		}
		fmt.Printf("(density samples written to %s)\n", *densityCSV)
	}
	return nil
}
