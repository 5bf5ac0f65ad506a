package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/policy"
)

// fillUnit builds a unit with n random two-step residents under light
// pressure.
func fillUnit(b *testing.B, n int) (*Unit, *rand.Rand) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	u, err := New(int64(n)*1000, policy.TemporalImportance{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		o, err := object.New(object.ID(fmt.Sprintf("seed/%06d", i)),
			int64(500+rng.Intn(500)), time.Duration(rng.Intn(100))*day,
			importance.TwoStep{
				Plateau: rng.Float64(),
				Persist: time.Duration(rng.Intn(30)) * day,
				Wane:    time.Duration(rng.Intn(60)) * day,
			})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := u.Put(o, 100*day); err != nil {
			b.Fatal(err)
		}
	}
	return u, rng
}

// BenchmarkPutUnderPressure measures admission with preemption on units of
// increasing resident counts (the per-arrival cost of the paper's
// select-and-preempt algorithm: one pass over the residents, then O(1) per
// eviction).
func BenchmarkPutUnderPressure(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096, 65536} {
		b.Run(fmt.Sprintf("residents=%d", n), func(b *testing.B) {
			u, rng := fillUnit(b, n)
			now := 100 * day
			put := func(i int) policy.Decision {
				now += time.Minute
				o, err := object.New(object.ID(fmt.Sprintf("bench/%09d", i)),
					int64(500+rng.Intn(500)), now,
					importance.TwoStep{Plateau: 0.9, Persist: 10 * day, Wane: 10 * day})
				if err != nil {
					b.Fatal(err)
				}
				d, err := u.Put(o, now)
				if err != nil {
					b.Fatal(err)
				}
				return d
			}
			// Use up the slack fillUnit leaves, so that every timed put plans
			// against a full unit.
			for i := -1; len(put(i).Victims) == 0; i-- {
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				put(i)
			}
		})
	}
}

// BenchmarkProbe measures the non-mutating placement probe.
func BenchmarkProbe(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("residents=%d", n), func(b *testing.B) {
			u, _ := fillUnit(b, n)
			o, err := object.New("probe", 1000, 100*day, importance.Constant{Level: 0.9})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u.Probe(o, 100*day)
			}
		})
	}
}

// BenchmarkDensityAt measures the density computation that every probe
// interval pays.
func BenchmarkDensityAt(b *testing.B) {
	u, _ := fillUnit(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = u.DensityAt(time.Duration(i) * time.Minute)
	}
}

// BenchmarkByteImportance measures the Figure 7 snapshot path.
func BenchmarkByteImportance(b *testing.B) {
	u, _ := fillUnit(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = u.ByteImportance(100 * day)
	}
}

// BenchmarkPutOneFunctionEach is the case the runs do not help: every
// resident, and every timed arrival, carries an importance function no other
// resident shares (a Linear with its own expiry), so each run holds one
// resident and a pressured put reads them all. It reports the time and the
// allocations of a put that preempts, and the heap a resident costs (objects
// and index together, after a collection).
func BenchmarkPutOneFunctionEach(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("residents=%d", n), func(b *testing.B) {
			const size = 128
			fn := func(i int) importance.Function {
				return importance.Linear{Start: 1, Expire: 30*day + time.Duration(i)*time.Millisecond}
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			u, err := New(int64(n)*size, policy.TemporalImportance{})
			if err != nil {
				b.Fatal(err)
			}
			now := time.Duration(0)
			put := func(i int) policy.Decision {
				now += time.Second
				o, err := object.New(object.ID(fmt.Sprintf("obj/%09d", i)), size, now, fn(i))
				if err != nil {
					b.Fatal(err)
				}
				d, err := u.Put(o, now)
				if err != nil || !d.Admit {
					b.Fatalf("put %d: %+v, %v", i, d, err)
				}
				return d
			}
			for i := 0; i < n; i++ {
				put(i)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if d := put(n + i); len(d.Victims) != 1 {
					b.Fatalf("put %d: %d victims, want 1", n+i, len(d.Victims))
				}
			}
			b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(n), "heapB/resident")
			runtime.KeepAlive(u)
		})
	}
}
