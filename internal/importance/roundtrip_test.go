package importance

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// randomFunctionDeep draws a valid function across every registered kind,
// including the Min and Product combinators (with nesting up to two levels),
// so the round-trip properties below exercise the full codec surface.
func randomFunctionDeep(rng *rand.Rand, depth int) Function {
	if depth < 2 && rng.Intn(3) == 0 {
		n := 1 + rng.Intn(3)
		fns := make([]Function, n)
		for i := range fns {
			fns[i] = randomFunctionDeep(rng, depth+1)
		}
		if rng.Intn(2) == 0 {
			f, err := NewMin(fns...)
			if err != nil {
				panic(err) // generator bug, not a property failure
			}
			return f
		}
		f, err := NewProduct(fns...)
		if err != nil {
			panic(err)
		}
		return f
	}
	return randomFunction(rng)
}

// probeAges are the sample points at which round-tripped functions must
// agree with their originals.
var probeAges = []time.Duration{0, Day / 3, 5 * Day, 90 * Day, 1500 * Day}

// TestQuickRegisteredCodecRoundTrip checks, for every registered function
// kind, that the binary codec and the spec string codec both
// round-trip, that the function prints as its spec, and that whatever comes out of either decoder still satisfies
// the package validator -- the monotone, [0, 1]-ranged contract the
// admission policy depends on.
func TestQuickRegisteredCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	seen := make(map[Kind]bool)
	for i := 0; i < 600; i++ {
		f := randomFunctionDeep(rng, 0)

		// Binary round trip.
		encoded, err := Encode(f)
		if err != nil {
			t.Fatalf("Encode(%v): %v", f, err)
		}
		seen[Kind(encoded[0])] = true
		decoded, n, err := Decode(encoded)
		if err != nil {
			t.Fatalf("Decode(%v): %v", f, err)
		}
		if n != len(encoded) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(encoded))
		}
		if err := Validate(decoded); err != nil {
			t.Fatalf("binary-decoded %v fails validator: %v", f, err)
		}
		for _, age := range probeAges {
			if got, want := decoded.At(age), f.At(age); math.Abs(got-want) > 1e-12 {
				t.Fatalf("binary round trip of %v changed At(%v): %v != %v", f, age, got, want)
			}
		}

		// Spec string round trip.
		spec, err := FormatSpec(f)
		if err != nil {
			t.Fatalf("FormatSpec(%v): %v", f, err)
		}
		if got := fmt.Sprint(f); got != spec {
			t.Fatalf("%T prints as %q, its spec is %q", f, got, spec)
		}
		parsed, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		if err := Validate(parsed); err != nil {
			t.Fatalf("spec-parsed %q fails validator: %v", spec, err)
		}
		for _, age := range probeAges {
			if got, want := parsed.At(age), f.At(age); math.Abs(got-want) > 1e-9 {
				t.Fatalf("spec round trip of %q changed At(%v): %v != %v", spec, age, got, want)
			}
		}
	}
	for kind := KindTwoStep; kind <= KindProduct; kind++ {
		if !seen[kind] {
			t.Errorf("600 draws never produced kind %v; generator lost a registered family", kind)
		}
	}
}

// TestDecodeRejectsDeepNesting pins the combinator depth limit: a hostile
// encoding nested past maxCombineDepth must error, not exhaust the stack.
func TestDecodeRejectsDeepNesting(t *testing.T) {
	f := Function(Constant{Level: 0.5})
	for i := 0; i < maxCombineDepth+2; i++ {
		m, err := NewMin(f)
		if err != nil {
			t.Fatalf("NewMin: %v", err)
		}
		f = m
	}
	encoded, err := Encode(f)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, _, err := Decode(encoded); err == nil {
		t.Fatal("Decode accepted nesting beyond maxCombineDepth")
	}
}

// TestHostileCountAllocatesNothing: a piecewise point count or a combinator
// operand count the encoding cannot hold -- 16 bytes a point, at least one
// an operand -- fails with ErrShortBuffer before the list is allocated,
// also when eight combinators nest each claiming 65 535 operands.
func TestHostileCountAllocatesNothing(t *testing.T) {
	claim := func(kind Kind) []byte { return []byte{byte(kind), 0xFF, 0xFF} }
	for _, enc := range [][]byte{
		claim(KindPiecewise),
		append(claim(KindPiecewise), make([]byte, 16)...),
		claim(KindMin),
		claim(KindProduct),
		bytes.Repeat(claim(KindMin), maxCombineDepth),
	} {
		if _, _, err := Decode(enc); !errors.Is(err, ErrShortBuffer) {
			t.Errorf("% x: err = %v, want ErrShortBuffer", enc, err)
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, _, err := Decode(enc); err == nil {
				t.Fatal("hostile count decoded")
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
			t.Errorf("% x: refusing the count allocated %d bytes per decode, want < 1 KiB", enc, per)
		}
	}
}
