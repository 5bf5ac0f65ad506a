package importance

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// ErrBadSpec reports an unparsable importance spec string.
var ErrBadSpec = errors.New("importance: bad spec")

// ParseSpec parses the human-readable importance spec syntax used by the
// command-line tools and examples. The syntax is
//
//	<family>[:<key>=<value>,...]
//
// with families
//
//	twostep:p=<level>,persist=<dur>,wane=<dur>
//	constant:p=<level>
//	dirac
//	linear:p=<level>,expire=<dur>
//	exp:p=<level>,halflife=<dur>,expire=<dur>
//	piecewise:<dur>=<level>,<dur>=<level>,...
//	min(<spec>;<spec>;...)
//	product(<spec>;<spec>;...)
//
// Durations use Go syntax ("360h", "15m") extended with a "d" day unit
// ("30d", "2.5d"). Examples:
//
//	twostep:p=1,persist=15d,wane=15d
//	constant:p=0.5
//	piecewise:0s=1,120d=1,850d=0
//
// The String methods of the function types emit this syntax, modulo the day
// unit, so ParseSpec(f.String()) round-trips every family.
func ParseSpec(spec string) (Function, error) {
	if inner, name, ok := cutCombinedSpec(spec); ok {
		return parseCombinedSpec(name, inner)
	}
	family, rest, _ := strings.Cut(spec, ":")
	family = strings.ToLower(strings.TrimSpace(family))
	switch family {
	case "dirac":
		if rest != "" {
			return nil, fmt.Errorf("%w: dirac takes no parameters: %q", ErrBadSpec, spec)
		}
		return Dirac{}, nil
	case "piecewise":
		return parsePiecewiseSpec(rest)
	case "twostep", "constant", "linear", "exp":
		return parseKeyValueSpec(family, rest)
	default:
		return nil, fmt.Errorf("%w: unknown family %q", ErrBadSpec, family)
	}
}

// MustParseSpec is a ParseSpec that panics on error, for tests and
// package-level example tables with compile-time-constant specs.
func MustParseSpec(spec string) Function {
	f, err := ParseSpec(spec)
	if err != nil {
		panic(err)
	}
	return f
}

// FormatSpec renders a function in the spec syntax accepted by ParseSpec.
func FormatSpec(f Function) (string, error) {
	switch f := f.(type) {
	case TwoStep:
		return f.String(), nil
	case Constant:
		return f.String(), nil
	case Dirac:
		return f.String(), nil
	case Linear:
		return f.String(), nil
	case Exponential:
		return f.String(), nil
	case Piecewise:
		return f.String(), nil
	case Min:
		return formatCombinedSpec("min", f.fns)
	case Product:
		return formatCombinedSpec("product", f.fns)
	default:
		return "", fmt.Errorf("%w: %T", ErrUnknownKind, f)
	}
}

// cutCombinedSpec recognizes the combinator form "<name>(<inner>)" with
// name "min" or "product", returning the inner operand list.
func cutCombinedSpec(spec string) (inner, name string, ok bool) {
	s := strings.TrimSpace(spec)
	for _, name := range []string{"min", "product"} {
		if strings.HasPrefix(s, name+"(") && strings.HasSuffix(s, ")") {
			return s[len(name)+1 : len(s)-1], name, true
		}
	}
	return "", "", false
}

// parseCombinedSpec parses the operand list of a min(...) or product(...)
// spec: operands separated by ';' at the top nesting level, so combinators
// nest ("min(product(a;b);c)").
func parseCombinedSpec(name, inner string) (Function, error) {
	parts, err := splitTopLevel(inner)
	if err != nil {
		return nil, err
	}
	fns := make([]Function, 0, len(parts))
	for _, part := range parts {
		f, err := ParseSpec(part)
		if err != nil {
			return nil, err
		}
		fns = append(fns, f)
	}
	if name == "min" {
		return NewMin(fns...)
	}
	return NewProduct(fns...)
}

// splitTopLevel splits s on ';' outside any parentheses.
func splitTopLevel(s string) ([]string, error) {
	var parts []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("%w: unbalanced parentheses in %q", ErrBadSpec, s)
			}
		case ';':
			if depth == 0 {
				parts = append(parts, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("%w: unbalanced parentheses in %q", ErrBadSpec, s)
	}
	parts = append(parts, strings.TrimSpace(s[start:]))
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("%w: empty combinator operand in %q", ErrBadSpec, s)
		}
	}
	return parts, nil
}

// formatCombinedSpec renders a combinator in the spec syntax.
func formatCombinedSpec(name string, fns []Function) (string, error) {
	parts := make([]string, 0, len(fns))
	for _, f := range fns {
		spec, err := FormatSpec(f)
		if err != nil {
			return "", err
		}
		parts = append(parts, spec)
	}
	return name + "(" + strings.Join(parts, ";") + ")", nil
}

// specDurations lists the duration keys each key=value family takes beside
// its level p.
var specDurations = map[string][]string{
	"twostep":  {"persist", "wane"},
	"constant": nil,
	"linear":   {"expire"},
	"exp":      {"halflife", "expire"},
}

// parseKeyValueSpec parses and builds a key=value family: the level p
// (default 1) and the family's durations (default 0). A key the family does
// not take, or a key given twice, is refused rather than ignored.
func parseKeyValueSpec(family, rest string) (Function, error) {
	level, durs := 1.0, make(map[string]time.Duration)
	seen := make(map[string]bool)
	if strings.TrimSpace(rest) != "" {
		for _, part := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(part, "=")
			if !ok {
				return nil, fmt.Errorf("%w: missing '=' in %q", ErrBadSpec, part)
			}
			key = strings.ToLower(strings.TrimSpace(key))
			val = strings.TrimSpace(val)
			switch {
			case seen[key]:
				return nil, fmt.Errorf("%w: key %q given twice", ErrBadSpec, key)
			case key == "p":
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("%w: level %q: %v", ErrBadSpec, val, err)
				}
				level = f
			case slices.Contains(specDurations[family], key):
				d, err := ParseDuration(val)
				if err != nil {
					return nil, fmt.Errorf("%w: duration %q: %v", ErrBadSpec, val, err)
				}
				durs[key] = d
			default:
				return nil, fmt.Errorf("%w: %s takes no key %q", ErrBadSpec, family, key)
			}
			seen[key] = true
		}
	}
	switch family {
	case "twostep":
		return NewTwoStep(level, durs["persist"], durs["wane"])
	case "constant":
		return NewConstant(level)
	case "linear":
		return NewLinear(level, durs["expire"])
	default:
		return NewExponential(level, durs["halflife"], durs["expire"])
	}
}

func parsePiecewiseSpec(rest string) (Function, error) {
	if strings.TrimSpace(rest) == "" {
		return nil, fmt.Errorf("%w: piecewise needs at least one point", ErrBadSpec)
	}
	var points []Point
	for _, part := range strings.Split(rest, ",") {
		ageStr, valStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("%w: missing '=' in piecewise point %q", ErrBadSpec, part)
		}
		age, err := ParseDuration(strings.TrimSpace(ageStr))
		if err != nil {
			return nil, fmt.Errorf("%w: piecewise age %q: %v", ErrBadSpec, ageStr, err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(valStr), 64)
		if err != nil {
			return nil, fmt.Errorf("%w: piecewise value %q: %v", ErrBadSpec, valStr, err)
		}
		points = append(points, Point{Age: age, Value: v})
	}
	return NewPiecewise(points)
}

// ParseDuration parses a Go duration extended with a day unit: a suffix of
// "d" multiplies the numeric prefix by 24 hours. Mixed forms such as "1d12h"
// are not supported; use either the day form or plain Go syntax.
func ParseDuration(s string) (time.Duration, error) {
	if strings.HasSuffix(s, "d") && !strings.HasSuffix(s, "nd") { // not a Go unit
		days, err := strconv.ParseFloat(strings.TrimSuffix(s, "d"), 64)
		if err != nil {
			return 0, fmt.Errorf("importance: bad day duration %q: %w", s, err)
		}
		return time.Duration(days * float64(Day)), nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("importance: %w", err)
	}
	return d, nil
}

// FormatDays renders a duration as a fractional day count, the natural unit
// of the paper's lifetime discussions.
func FormatDays(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/float64(Day), 'g', 6, 64) + "d"
}
