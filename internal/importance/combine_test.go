package importance

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestMin(t *testing.T) {
	a := TwoStep{Plateau: 1, Persist: 10 * Day, Wane: 10 * Day}
	b := Constant{Level: 0.5}
	m, err := NewMin(a, b)
	if err != nil {
		t.Fatalf("NewMin: %v", err)
	}
	tests := []struct {
		age  time.Duration
		want float64
	}{
		{0, 0.5},        // capped by the constant
		{10 * Day, 0.5}, // still capped
		{16 * Day, 0.4}, // two-step below the cap now
		{20 * Day, 0},   // two-step expired
	}
	for _, tt := range tests {
		if got := m.At(tt.age); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tt.age, got, tt.want)
		}
	}
	exp, ok := m.ExpireAge()
	if !ok || exp != 20*Day {
		t.Errorf("ExpireAge = %v, %v; want 20d (two-step drives expiry)", exp, ok)
	}
	if err := Validate(m); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestMinNeverExpiring(t *testing.T) {
	m, err := NewMin(Constant{Level: 0.5}, Constant{Level: 0.7})
	if err != nil {
		t.Fatalf("NewMin: %v", err)
	}
	if _, ok := m.ExpireAge(); ok {
		t.Error("min of never-expiring functions should not expire")
	}
	if got := m.At(100 * Day); got != 0.5 {
		t.Errorf("At = %v, want 0.5", got)
	}
}

func TestProduct(t *testing.T) {
	a := Linear{Start: 1, Expire: 10 * Day}
	b := Constant{Level: 0.5}
	p, err := NewProduct(a, b)
	if err != nil {
		t.Fatalf("NewProduct: %v", err)
	}
	if got := p.At(0); got != 0.5 {
		t.Errorf("At(0) = %v, want 0.5", got)
	}
	if got := p.At(5 * Day); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("At(5d) = %v, want 0.25", got)
	}
	exp, ok := p.ExpireAge()
	if !ok || exp != 10*Day {
		t.Errorf("ExpireAge = %v, %v; want 10d", exp, ok)
	}
	if err := Validate(p); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestCombineValidation(t *testing.T) {
	if _, err := NewMin(); err == nil {
		t.Error("empty Min accepted")
	}
	if _, err := NewProduct(); err == nil {
		t.Error("empty Product accepted")
	}
	if _, err := NewMin(nil); !errors.Is(err, ErrNilOperand) {
		t.Errorf("nil operand err = %v", err)
	}
	if _, err := NewProduct(Constant{Level: 1}, nil); !errors.Is(err, ErrNilOperand) {
		t.Errorf("nil operand err = %v", err)
	}
}

func TestCap(t *testing.T) {
	// The paper's student derivation: the university lifetime at half
	// the importance ceiling, a Min with a Constant.
	university := TwoStep{Plateau: 1, Persist: 70 * Day, Wane: 730 * Day}
	student, err := NewMin(university, Constant{Level: 0.5})
	if err != nil {
		t.Fatalf("NewMin: %v", err)
	}
	if got := student.At(0); got != 0.5 {
		t.Errorf("At(0) = %v, want capped 0.5", got)
	}
	// Deep into the wane the university function dips below the cap.
	deep := 70*Day + 500*Day
	if got, uni := student.At(deep), university.At(deep); got != uni {
		t.Errorf("At(deep) = %v, want the underlying %v", got, uni)
	}
	if _, err := NewConstant(1.5); err == nil {
		t.Error("out-of-range cap accepted")
	}
}

func TestQuickCombinatorsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		fns := make([]Function, 1+rng.Intn(3))
		for i := range fns {
			fns[i] = randomFunction(rng)
		}
		m, err := NewMin(fns...)
		if err != nil {
			t.Fatalf("NewMin: %v", err)
		}
		p, err := NewProduct(fns...)
		if err != nil {
			t.Fatalf("NewProduct: %v", err)
		}
		for _, f := range []Function{m, p} {
			prev := f.At(0)
			for age := Day; age <= 2000*Day; age *= 2 {
				v := f.At(age)
				if v < 0 || v > 1 {
					t.Fatalf("trial %d: value %v out of range", trial, v)
				}
				if v > prev+1e-12 {
					t.Fatalf("trial %d: combinator not monotone (%v -> %v)", trial, prev, v)
				}
				prev = v
			}
		}
	}
}
