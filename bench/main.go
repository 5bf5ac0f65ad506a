// Command bench is the end-to-end benchmark of a saturated besteffs node.
//
// It builds cmd/besteffsd (untimed), and for each workload spawns a real
// daemon, drives it closed-loop over TCP loopback through internal/client,
// verifies every output, and prints every metric by name with its unit and
// sample count. See README.md in this directory.
//
//	go run -C bench . -seed 1            all four workloads: end-to-end and client metrics
//	go run -C bench . -layers            per-layer probes only
//	go run -C bench . -trace 1           traced runs, per-layer metrics, span files
//	go run -C bench . -selfcheck 3       3 sets of 3 runs: repeatability of the benchmark itself
//	bash bench/run.sh --workload saturated_put --seed 1 --seconds 20 --trace 0
//
// The last form is the one BENCHMARK.json names; with -workload the last
// line of standard output is one JSON object with the run's result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "run one workload and end with the result as one JSON line (default: all four)")
	seed := flag.Int64("seed", 1, "seed of IDs, payloads and op streams")
	seconds := flag.Int("seconds", 20, "measured window, wall seconds")
	trace := flag.Int("trace", 0, "1: traced run -- layer probes, a plain and a traced window of seconds/3 each, span file")
	layers := flag.Bool("layers", false, "run the per-layer probes only")
	selfcheck := flag.Int("selfcheck", 0, "run N sets of 3 full runs and compare the set medians against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	runtime.GOMAXPROCS(generatorProcs)

	specs := workloads()
	if *workload != "" {
		s, err := findSpec(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		specs = []*spec{s}
	}

	h, err := newHarness()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer h.close()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		h.close()
		os.Exit(130)
	}()

	opt := runOptions{seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	printEnv(h.env, opt, specs)

	switch {
	case *selfcheck > 0:
		if err := h.selfcheck(specs, *selfcheck, opt); err != nil {
			fmt.Fprintln(os.Stderr, "bench: selfcheck:", err)
			return 1
		}
		return 0
	case *layers:
		ms, err := h.runLayers()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: layers:", err)
			return 1
		}
		printMetrics("layers", ms)
		return 0
	}

	var layerMetrics []metric
	if opt.traced {
		if layerMetrics, err = h.runLayers(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: layers:", err)
			return 1
		}
		printMetrics("layers", layerMetrics)
	}
	ok := true
	var last *runResult
	for _, s := range specs {
		res, err := h.runWorkload(s, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.name, err)
			return 1
		}
		printResult(res, layerMetrics)
		ok = ok && res.failed == 0
		last = res
	}
	if *workload != "" {
		reported := last.endToEnd
		if opt.traced {
			reported = append(append([]metric(nil), layerMetrics...), last.perLayer...)
		}
		if err := printJSONResult(last, reported); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// printEnv prints the environment block: one JSON line, so two result files
// can be compared field by field before their numbers are.
func printEnv(env environment, opt runOptions, specs []*spec) {
	type warm struct {
		Prefill int `json:"prefill_puts"`
		Warmup  int `json:"warmup_steps_per_conn"`
		Conns   int `json:"connections"`
	}
	block := struct {
		environment
		Seed    int64           `json:"seed"`
		WindowS float64         `json:"window_s"`
		Traced  bool            `json:"traced"`
		Warm    map[string]warm `json:"workloads"`
	}{env, opt.seed, opt.window.Seconds(), opt.traced, map[string]warm{}}
	for _, s := range specs {
		block.Warm[s.name] = warm{s.prefill, s.warmup, s.conns}
	}
	b, err := json.Marshal(block)
	if err != nil {
		panic(err) // plain struct of strings and numbers
	}
	fmt.Printf("env %s\n", b)
}

// printMetrics prints one line per metric: scope/name, value, unit, samples.
func printMetrics(scope string, ms []metric) {
	for _, m := range ms {
		fmt.Printf("%-52s %14.4f %-6s n=%d\n", scope+"/"+m.Name, m.Value, m.Unit, m.N)
	}
}

// printResult prints one run: metrics, operation counts, failed checks.
func printResult(res *runResult, layerMetrics []metric) {
	printMetrics(res.workload, res.endToEnd)
	printMetrics(res.workload, res.perLayer)
	if p := res.plain; len(p.putLat) > 0 && len(p.getLat) > 0 {
		pp, gp := tailPercentile(len(p.putLat)), tailPercentile(len(p.getLat))
		fmt.Printf("%-52s put p%g = %.1f us, get p%g = %.1f us (highest percentiles with ten samples beyond)\n",
			res.workload+"/tails", pp*100, percentile(p.putLat, pp)/1e3, gp*100, percentile(p.getLat, gp)/1e3)
	}
	if res.workload == "saturated_put" && len(layerMetrics) > 0 {
		printMetrics(res.workload, []metric{sumRatio(layerMetrics, res)})
	}
	if res.tracePath != "" {
		fmt.Printf("%-52s %s\n", res.workload+"/trace_file", res.tracePath)
	}
	fmt.Printf("%-52s %d\n", res.workload+"/ops_attempted", res.attempted)
	fmt.Printf("%-52s %d\n", res.workload+"/ops_failed", res.failed)
	for _, f := range res.failures {
		fmt.Printf("%-52s %s\n", res.workload+"/failure", f)
	}
}

// sumRatio is ROADMAP item 1's test that the layers add up: the unsaturated
// TCP round trip plus what saturation adds inside the store, over the put
// latency saturated_put measured. 0.85-1.15 is the target.
func sumRatio(layerMetrics []metric, res *runResult) metric {
	v := map[string]float64{}
	for _, m := range layerMetrics {
		v[m.Name] = m.Value
	}
	sum := v["client.tcp_put_us"] + v["store.put_pressured_4k_us"] - v["store.put_free_us"]
	p50 := percentile(res.plain.putLat, 0.5) / 1e3
	return metric{"layers.saturated_put_sum_ratio", sum / p50, "ratio", len(res.plain.putLat)}
}

// printJSONResult prints the line the acceptance driver reads.
func printJSONResult(res *runResult, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	for _, m := range ms {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("result json: %w", err)
	}
	fmt.Println(string(b))
	return nil
}
