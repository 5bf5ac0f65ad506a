package importance

import (
	"errors"
	"fmt"
	"time"
)

// Combinators build new monotone functions from existing ones. Both
// pointwise minimum and product preserve monotonicity and the [0, 1] range,
// so combined functions remain valid temporal importance annotations. They
// express policies the base families cannot, e.g. "the Table 1 lecture
// lifetime, but never above 0.5" (a student stream derived from a
// university annotation) or "this lifetime gated by a separate retention
// cap".

// ErrNilOperand reports a combinator built over a nil function.
var ErrNilOperand = errors.New("importance: nil operand")

// Min is the pointwise minimum of its operands: as important as the least
// generous annotation allows. The minimum of monotonically decreasing
// functions is monotonically decreasing.
type Min struct {
	fns []Function
}

var _ Function = Min{}

// NewMin builds the pointwise minimum of one or more functions.
func NewMin(fns ...Function) (Min, error) {
	if len(fns) == 0 {
		return Min{}, errors.New("importance: Min needs at least one operand")
	}
	for i, f := range fns {
		if f == nil {
			return Min{}, fmt.Errorf("operand %d: %w", i, ErrNilOperand)
		}
	}
	return Min{fns: append([]Function(nil), fns...)}, nil
}

// At returns the minimum of the operands at the given age.
func (m Min) At(age time.Duration) float64 {
	min := 1.0
	for _, f := range m.fns {
		if v := f.At(age); v < min {
			min = v
		}
	}
	return min
}

// ExpireAge returns the earliest operand expiry: the minimum is zero as
// soon as any operand reaches zero.
func (m Min) ExpireAge() (time.Duration, bool) {
	best := time.Duration(0)
	found := false
	for _, f := range m.fns {
		exp, ok := f.ExpireAge()
		if !ok {
			continue
		}
		if !found || exp < best {
			best, found = exp, true
		}
	}
	return best, found
}

// String returns the spec ParseSpec reads back, e.g.
// "min(twostep:p=1,persist=360h0m0s,wane=360h0m0s;constant:p=0.5)".
func (m Min) String() string { return combinedString("min", m.fns) }

// Product is the pointwise product of its operands: importance discounted
// by every factor. The product of monotonically decreasing [0, 1]
// functions is monotonically decreasing and stays in [0, 1].
type Product struct {
	fns []Function
}

var _ Function = Product{}

// NewProduct builds the pointwise product of one or more functions.
func NewProduct(fns ...Function) (Product, error) {
	if len(fns) == 0 {
		return Product{}, errors.New("importance: Product needs at least one operand")
	}
	for i, f := range fns {
		if f == nil {
			return Product{}, fmt.Errorf("operand %d: %w", i, ErrNilOperand)
		}
	}
	return Product{fns: append([]Function(nil), fns...)}, nil
}

// At returns the product of the operands at the given age.
func (p Product) At(age time.Duration) float64 {
	v := 1.0
	for _, f := range p.fns {
		v *= f.At(age)
		if v == 0 {
			return 0
		}
	}
	return v
}

// ExpireAge returns the earliest operand expiry: a product is zero once any
// factor is.
func (p Product) ExpireAge() (time.Duration, bool) {
	best := time.Duration(0)
	found := false
	for _, f := range p.fns {
		exp, ok := f.ExpireAge()
		if !ok {
			continue
		}
		if !found || exp < best {
			best, found = exp, true
		}
	}
	return best, found
}

// String returns the spec ParseSpec reads back, e.g.
// "product(constant:p=0.5;linear:p=1,expire=720h0m0s)".
func (p Product) String() string { return combinedString("product", p.fns) }

// combinedString renders a combinator for String: its spec, or -- when an
// operand is a type FormatSpec does not know -- the operands as %v prints
// them.
func combinedString(name string, fns []Function) string {
	if spec, err := formatCombinedSpec(name, fns); err == nil {
		return spec
	}
	return fmt.Sprintf("%s(%v)", name, fns)
}
