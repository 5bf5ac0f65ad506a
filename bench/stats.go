package main

import (
	"math"
	"sort"
	"time"

	"besteffs/internal/stats"
)

// metric is one reported number: a name from BENCHMARK.json, its value and
// unit, and how many samples stand behind it.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// percentile returns the p-quantile (0 <= p <= 1) of an ascending slice by
// nearest rank. An empty slice yields NaN so a missing sample shows in the
// output and never passes for a measurement.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return float64(sorted[nearestRank(len(sorted), p)])
}

// nearestRank is the index of the p-quantile among n ascending values.
func nearestRank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)
}

// tailLadder are the percentiles a tail is reported at, each with the
// share of samples beyond it written as one in so many.
var tailLadder = []struct {
	p     float64
	oneIn int
}{{0.5, 2}, {0.9, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}}

// tailPercentile returns the highest percentile of the ladder that still
// has at least ten of n samples beyond it, so the reported tail is a
// measurement and not one outlier. With fewer than twenty samples nothing
// qualifies and the median is returned.
func tailPercentile(n int) float64 {
	best := tailLadder[0].p
	for _, step := range tailLadder {
		if n/step.oneIn >= 10 {
			best = step.p
		}
	}
	return best
}

// segmentRates cuts a window into n equal segments and returns the puts
// completed per second in each. weight is how many puts one call completes.
// A call that ended after the window closed belongs to no segment.
func segmentRates(puts []sample, window time.Duration, n int, weight int64) []float64 {
	counts := make([]int64, n)
	for _, p := range puts {
		if i := int(p.end * int64(n) / int64(window)); p.end >= 0 && i < n {
			counts[i] += weight
		}
	}
	rates := make([]float64, n)
	for i, c := range counts {
		rates[i] = float64(c) / (window.Seconds() / float64(n))
	}
	return rates
}

// median returns the middle of xs (mean of the two middles for an even
// count), NaN when empty.
func median(xs []float64) float64 {
	m, err := stats.Percentile(xs, 0.5)
	if err != nil {
		return math.NaN()
	}
	return m
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), which is
// what the acceptance check of the benchmark uses.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spreadShare is the distance between the quartiles as a share of the
// median: the run-to-run spread the bounds are judged against.
func spreadShare(values []float64) float64 {
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}
