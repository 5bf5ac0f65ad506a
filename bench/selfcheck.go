package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-check needs: the
// bound each end-to-end metric is held to.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readBounds loads the end-to-end metrics and their regression bounds from
// BENCHMARK.json, the one place they are written down.
func readBounds(root string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

// disagreement is the largest pairwise difference between set medians, as a
// share of the smaller one.
func disagreement(medians []float64) float64 {
	lo, hi := medians[0], medians[0]
	for _, m := range medians[1:] {
		lo, hi = min(lo, m), max(hi, m)
	}
	return (hi - lo) / lo
}

// runsPerSet is how many full runs make one set of the self-check.
const runsPerSet = 3

// selfcheck measures the benchmark's own repeatability: sets of three runs
// of identical code, every run on another seed. Per workload and metric it
// prints each set's median, the largest disagreement between set medians,
// the quartile spread of all runs taken together, and the bound. It fails
// when an end-to-end metric's disagreement exceeds half its bound, when the
// spread of one other than setup_s exceeds the bound (the acceptance of the
// benchmark judges setup_s on medians only), or when any operation failed.
// The client.* metrics have no bound; their rows show why.
func (h *harness) selfcheck(specs []*spec, sets int, opt runOptions) error {
	bf, err := readBounds(h.root)
	if err != nil {
		return err
	}
	bounds := make(map[string]float64)
	for _, e := range bf.EndToEnd {
		bounds[e.Name] = e.Bound
	}
	// values[workload][metric][set] = one value per run; names keeps the
	// order the metrics are reported in.
	values := make(map[string]map[string][][]float64)
	for _, s := range specs {
		values[s.name] = make(map[string][][]float64)
	}
	var names []string
	opt.traced = false
	failedOps := int64(0)
	for set := 0; set < sets; set++ {
		for run := 0; run < runsPerSet; run++ {
			opt.seed++
			for _, s := range specs {
				res, err := h.runWorkload(s, opt)
				if err != nil {
					return fmt.Errorf("%s: %w", s.name, err)
				}
				failedOps += res.failed
				for _, f := range res.failures {
					fmt.Printf("%s/failure (set %d, seed %d) %s\n", s.name, set, opt.seed, f)
				}
				fmt.Printf("selfcheck set %d run %d seed %d %s:", set, run, opt.seed, s.name)
				for _, m := range append(res.endToEnd, res.perLayer...) {
					if _, gating := bounds[m.Name]; !gating && !strings.HasPrefix(m.Name, "client.") {
						continue
					}
					vs := values[s.name][m.Name]
					if vs == nil && s == specs[0] {
						names = append(names, m.Name)
					}
					if len(vs) <= set {
						vs = append(vs, nil)
					}
					vs[set] = append(vs[set], m.Value)
					values[s.name][m.Name] = vs
					fmt.Printf(" %s=%.5g", m.Name, m.Value)
				}
				fmt.Println()
			}
		}
	}
	for name := range bounds {
		if len(values[specs[0].name][name]) == 0 {
			return fmt.Errorf("BENCHMARK.json names %s, which no run reported", name)
		}
	}
	bad := 0
	fmt.Printf("%-16s %-28s %-34s %9s %9s %7s\n", "workload", "metric", "set medians", "disagree", "spread", "bound")
	for _, s := range specs {
		for _, m := range names {
			var medians, all []float64
			for _, set := range values[s.name][m] {
				medians = append(medians, median(set))
				all = append(all, set...)
			}
			dis, spread := disagreement(medians), spreadShare(all)
			bound, gating := bounds[m]
			boundText, verdict := "-", ""
			if gating {
				boundText = fmt.Sprintf("%.0f%%", bound*100)
				if dis > bound/2 {
					verdict += "  FAIL: sets disagree by more than half the bound"
					bad++
				}
				if m != "setup_s" && spread > bound {
					verdict += "  FAIL: spread above the bound"
					bad++
				}
			}
			fmt.Printf("%-16s %-28s %-34s %8.2f%% %8.2f%% %7s%s\n", s.name, m,
				fmt.Sprintf("%.5g", medians), dis*100, spread*100, boundText, verdict)
		}
	}
	if failedOps > 0 {
		return fmt.Errorf("%d operations or checks failed", failedOps)
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons outside the limits", bad)
	}
	return nil
}
