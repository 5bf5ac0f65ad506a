package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the package's live telemetry: a registry of counters, gauges
// and log-bucketed histograms with a lock-free hot path (sync/atomic) and
// Prometheus text-format exposition.

// Counter is a monotonically increasing counter. Increments are a single
// atomic add; reads are atomic loads. The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the value to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down (connection counts, water
// marks). Stored as float64 bits in a single atomic word. The zero value is
// ready to use and reads 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram in the Prometheus style:
// observation counts per upper bound ("le"), plus a running sum and total
// count. Observe is lock-free: one binary search plus three atomic
// operations. Bucket bounds are fixed at construction; use ExpBuckets for
// the log-spaced schemes latency and size distributions want.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the overflow bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// newHistogram validates bounds and builds the histogram.
func newHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("metrics: histogram bounds not ascending at %d (%g <= %g)",
				i, bounds[i], bounds[i-1])
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}, nil
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= le
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns (upper bound, cumulative count) pairs, ending with the
// +Inf bucket (bound math.Inf(1), count == Count()).
func (h *Histogram) Buckets() []BucketCount {
	out := make([]BucketCount, 0, len(h.counts))
	cum := uint64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		out = append(out, BucketCount{Le: bound, Count: cum})
	}
	return out
}

// BucketCount is one cumulative histogram bucket.
type BucketCount struct {
	// Le is the bucket's inclusive upper bound.
	Le float64
	// Count is the cumulative observation count at or below Le.
	Count uint64
}

// ExpBuckets returns n log-spaced bucket bounds: start, start*factor,
// start*factor^2, ... It panics on invalid parameters (a construction-time
// programming error, like a bad regexp).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("metrics: ExpBuckets(%g, %g, %d): need start > 0, factor > 1, n >= 1",
			start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Default bucket schemes, shared by client and server so the two sides'
// latency distributions are directly comparable.
var (
	// LatencyBuckets spans 50µs to ~1.6s in doublings: fine enough to
	// separate in-memory dispatch from disk and queueing, wide enough for
	// a saturated node.
	LatencyBuckets = ExpBuckets(50e-6, 2, 16)
	// SizeBuckets spans 64B to ~16MiB in powers of four; the +Inf bucket
	// absorbs anything up to the 64MiB frame cap.
	SizeBuckets = ExpBuckets(64, 4, 10)
)

// Label is one constant name/value pair attached to a metric series.
type Label struct {
	Name, Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// collector is anything the registry can expose.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

// series is one labeled instance within a family.
type series struct {
	labels  string // rendered {a="b",...} or ""
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// family groups every series sharing a metric name.
type family struct {
	name, help string
	kind       kind
	series     []*series
	byLabels   map[string]*series
}

// Registry holds named metric families and renders them in the Prometheus
// text exposition format. Registration takes a mutex; the returned handles
// are lock-free. Registering the same name+labels again returns the
// existing handle, so call sites may register idempotently.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup finds or creates the family and series slot for name+labels,
// enforcing kind consistency.
func (r *Registry) lookup(name, help string, k kind, labels []Label) *series {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, byLabels: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != k {
		panic(fmt.Sprintf("metrics: %s registered twice with different kinds", name))
	}
	s, ok := f.byLabels[ls]
	if !ok {
		s = &series{labels: ls}
		f.byLabels[ls] = s
		f.series = append(f.series, s)
	}
	return s
}

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, kindCounter, labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, kindGauge, labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram registers (or finds) a histogram series with the given bucket
// upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.lookup(name, help, kindHistogram, labels)
	if s.hist == nil {
		h, err := newHistogram(bounds)
		if err != nil {
			panic(err)
		}
		s.hist = h
	}
	return s.hist
}

// CounterFunc registers a counter whose value is read from fn at exposition
// time -- for sources that already count internally (e.g. store.Unit).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, kindCounterFunc, labels)
	if s.fn == nil {
		s.fn = fn
	}
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time (density, used bytes, boundary).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, kindGaugeFunc, labels)
	if s.fn == nil {
		s.fn = fn
	}
}

// WriteText renders every family in the Prometheus text exposition format
// (version 0.0.4): families in registration order, series in registration
// order within a family.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.writeText(w); err != nil {
			return fmt.Errorf("metrics: write %s: %w", f.name, err)
		}
	}
	return nil
}

func (f *family) writeText(w io.Writer) error {
	typ := "counter"
	switch f.kind {
	case kindGauge, kindGaugeFunc:
		typ = "gauge"
	case kindHistogram:
		typ = "histogram"
	}
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, typ); err != nil {
		return err
	}
	for _, s := range f.series {
		if err := f.writeSeries(w, s); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeSeries(w io.Writer, s *series) error {
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.counter.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, fmtFloat(s.gauge.Value()))
		return err
	case kindCounterFunc, kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, fmtFloat(s.fn()))
		return err
	case kindHistogram:
		for _, b := range s.hist.Buckets() {
			le := "+Inf"
			if !math.IsInf(b.Le, 1) {
				le = fmtFloat(b.Le)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, withLabel(s.labels, "le", le), b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, fmtFloat(s.hist.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, s.hist.Count())
		return err
	}
	return nil
}

// Handler serves the registry in the Prometheus text exposition format.
// GET returns the metrics; HEAD returns headers only; anything else is 405.
// Responses are marked uncacheable -- stale metrics are worse than none.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.Method {
		case http.MethodGet, http.MethodHead:
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		if req.Method == http.MethodHead {
			return
		}
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		io.WriteString(w, sb.String())
	})
}

// fmtFloat renders a float the way Prometheus expects: shortest exact form.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// renderLabels renders a sorted {a="b",c="d"} block, or "" for no labels.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if !validLabelName(l.Name) {
			panic(fmt.Sprintf("metrics: invalid label name %q", l.Name))
		}
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteString(`"`)
	}
	sb.WriteByte('}')
	return sb.String()
}

// withLabel merges one extra label into an already-rendered label block
// (used for histogram "le").
func withLabel(rendered, name, value string) string {
	extra := name + `="` + escapeLabelValue(value) + `"`
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		letter := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !letter && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		letter := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_'
		if !letter && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}
