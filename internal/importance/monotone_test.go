package importance

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// breakpoints returns the ages at which f changes shape: where a plateau
// ends, a wane starts, a piece joins the next, or the function expires.
func breakpoints(f Function) []time.Duration {
	bps := []time.Duration{0}
	if exp, ok := f.ExpireAge(); ok {
		bps = append(bps, exp)
	}
	switch f := f.(type) {
	case TwoStep:
		bps = append(bps, f.Persist, f.Persist+f.Wane)
	case Linear:
		bps = append(bps, f.Expire)
	case Exponential:
		bps = append(bps, f.HalfLife, 2*f.HalfLife, f.Expire)
	case Piecewise:
		for _, p := range f.points {
			bps = append(bps, p.Age)
		}
	case Min:
		for _, g := range f.fns {
			bps = append(bps, breakpoints(g)...)
		}
	case Product:
		for _, g := range f.fns {
			bps = append(bps, breakpoints(g)...)
		}
	}
	return bps
}

// randomLevel draws an importance level: usually any float in [0, 1], and
// sometimes a grid value, so that equal levels and exact zeros and ones occur.
func randomLevel(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return float64(rng.Intn(6)) / 5
	}
	return rng.Float64()
}

// randomSpan draws a duration of up to sixty days at nanosecond resolution,
// or now and then zero.
func randomSpan(rng *rand.Rand) time.Duration {
	if rng.Intn(10) == 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(60 * Day)))
}

// randomPiecewise draws one to eight points with strictly increasing ages
// and non-increasing values, some of them repeated and some trailing zeros.
func randomPiecewise(t *testing.T, rng *rand.Rand) Piecewise {
	t.Helper()
	n := 1 + rng.Intn(8)
	ages := make([]time.Duration, 0, n)
	for len(ages) < n {
		if a := randomSpan(rng); !slices.Contains(ages, a) {
			ages = append(ages, a)
		}
	}
	slices.Sort(ages)
	values := make([]float64, n)
	for i := range values {
		values[i] = randomLevel(rng)
	}
	slices.Sort(values)
	slices.Reverse(values)
	if rng.Intn(3) == 0 {
		values[n-1] = 0
	}
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{Age: ages[i], Value: values[i]}
	}
	f, err := NewPiecewise(pts)
	if err != nil {
		t.Fatalf("NewPiecewise(%v): %v", pts, err)
	}
	return f
}

// randomOfFamily draws one function of the named family; the combinators
// take two or three operands of the other families.
func randomOfFamily(t *testing.T, rng *rand.Rand, family string) Function {
	t.Helper()
	operands := func() []Function {
		leaves := []string{"twostep", "constant", "dirac", "linear", "exponential", "piecewise"}
		fns := make([]Function, 2+rng.Intn(2))
		for i := range fns {
			fns[i] = randomOfFamily(t, rng, leaves[rng.Intn(len(leaves))])
		}
		return fns
	}
	switch family {
	case "twostep":
		return TwoStep{Plateau: randomLevel(rng), Persist: randomSpan(rng), Wane: randomSpan(rng)}
	case "constant":
		return Constant{Level: randomLevel(rng)}
	case "dirac":
		return Dirac{}
	case "linear":
		return Linear{Start: randomLevel(rng), Expire: randomSpan(rng)}
	case "exponential":
		return Exponential{Start: randomLevel(rng), HalfLife: 1 + randomSpan(rng), Expire: randomSpan(rng)}
	case "piecewise":
		return randomPiecewise(t, rng)
	case "min":
		f, err := NewMin(operands()...)
		if err != nil {
			t.Fatalf("NewMin: %v", err)
		}
		return f
	case "product":
		f, err := NewProduct(operands()...)
		if err != nil {
			t.Fatalf("NewProduct: %v", err)
		}
		return f
	}
	t.Fatalf("unknown family %q", family)
	return nil
}

// TestAtNeverIncreasesWithAge holds every family to monotonicity in float
// arithmetic, not just in exact arithmetic: At at an older age is never above
// At at a younger one. The ages are a dense grid over the function's shape
// plus every age within 3 ns of a breakpoint or the expiry, where rounding
// at a piece boundary could otherwise step the value up. A storage unit
// relies on this to keep the residents of one function in arrival order.
func TestAtNeverIncreasesWithAge(t *testing.T) {
	families := []string{"twostep", "constant", "dirac", "linear", "exponential", "piecewise", "min", "product"}
	rng := rand.New(rand.NewSource(37))
	for _, family := range families {
		t.Run(family, func(t *testing.T) {
			for trial := 0; trial < 400; trial++ {
				f := randomOfFamily(t, rng, family)
				bps := breakpoints(f)
				horizon := slices.Max(bps) + Day
				var ages []time.Duration
				const grid = 1500
				for i := 0; i <= grid; i++ {
					ages = append(ages, time.Duration(int64(horizon)/grid*int64(i)))
				}
				for _, b := range bps {
					for d := time.Duration(-3); d <= 3; d++ {
						if b+d >= 0 {
							ages = append(ages, b+d)
						}
					}
				}
				slices.Sort(ages)
				ages = slices.Compact(ages)
				prev := f.At(ages[0])
				for _, age := range ages {
					v := f.At(age)
					if v < 0 || v > 1 {
						t.Fatalf("%v: At(%d ns) = %v, outside [0, 1]", f, age, v)
					}
					if v > prev {
						t.Fatalf("%v: At(%d ns) = %v rises above the %v of a younger age",
							fmt.Sprint(f), age, v, prev)
					}
					prev = v
				}
			}
		})
	}
}
