package metrics

import (
	"testing"
	"time"
)

func BenchmarkAtomicCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkAtomicCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkGaugeAdd(b *testing.B) {
	g := NewRegistry().Gauge("bench_gauge", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", LatencyBuckets)
	v := (250 * time.Microsecond).Seconds()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(v)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", LatencyBuckets)
	v := (250 * time.Microsecond).Seconds()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(v)
		}
	})
}
