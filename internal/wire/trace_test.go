package wire

import (
	"strings"
	"testing"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/telemetry"
)

func TestTraceTrailerRoundTrip(t *testing.T) {
	msgs := []Message{
		&Put{
			ID: "cs101/l1", Owner: "prof", Version: 1,
			Importance: importance.Constant{Level: 0.5},
			Payload:    []byte("bytes"),
		},
		&Stat{},
		&Get{ID: "x"},
		&PutResult{Admitted: true, Boundary: 0.25, Evicted: []object.ID{"a"}},
	}
	for _, msg := range msgs {
		body := mustEncode(t, msg)
		traced := AppendTraceID(body, "ab12-000017")
		m, tr, err := DecodeWithTrailers(traced)
		if err != nil {
			t.Fatalf("DecodeWithTrailers(%v): %v", msg.Op(), err)
		}
		if tr.Trace != "ab12-000017" {
			t.Errorf("%v: trace id = %q, want ab12-000017", msg.Op(), tr.Trace)
		}
		if m.Op() != msg.Op() {
			t.Errorf("decoded op = %v, want %v", m.Op(), msg.Op())
		}
	}
}

// TestTraceTrailerBackwardCompatible is the compatibility contract: a peer
// that predates tracing (plain Decode) must parse a traced frame as if the
// trailer were not there.
func TestTraceTrailerBackwardCompatible(t *testing.T) {
	body := mustEncode(t, &Get{ID: "cs101/l1"})
	traced := AppendTraceID(body, "deadbeef-01")
	m, err := Decode(traced)
	if err != nil {
		t.Fatalf("legacy Decode of traced frame: %v", err)
	}
	g, ok := m.(*Get)
	if !ok || g.ID != "cs101/l1" {
		t.Errorf("legacy decode = %#v", m)
	}
}

func TestDecodeTracedWithoutTrailer(t *testing.T) {
	m, tr, err := DecodeWithTrailers(mustEncode(t, &Density{}))
	if err != nil {
		t.Fatalf("DecodeWithTrailers: %v", err)
	}
	if tr.Trace != "" {
		t.Errorf("untraced frame produced id %q", tr.Trace)
	}
	if m.Op() != OpDensity {
		t.Errorf("op = %v", m.Op())
	}
}

func TestMalformedTrailerIgnored(t *testing.T) {
	body := mustEncode(t, &Stat{})
	cases := map[string][]byte{
		"bare magic":     append(append([]byte(nil), body...), traceMagic),
		"length overrun": append(append([]byte(nil), body...), traceMagic, 10, 'a'),
		"zero length":    append(append([]byte(nil), body...), traceMagic, 0),
		"wrong magic":    append(append([]byte(nil), body...), 0x55, 2, 'h', 'i'),
		"trailing junk":  append(append([]byte(nil), body...), traceMagic, 2, 'h', 'i', 'x'),
	}
	for name, buf := range cases {
		m, tr, err := DecodeWithTrailers(buf)
		if err != nil {
			t.Errorf("%s: DecodeWithTrailers error: %v", name, err)
			continue
		}
		if tr.Trace != "" {
			t.Errorf("%s: got trace id %q, want none", name, tr.Trace)
		}
		if m == nil || m.Op() != OpStat {
			t.Errorf("%s: message = %v", name, m)
		}
	}
}

func TestAppendTraceIDBounds(t *testing.T) {
	body := mustEncode(t, &Stat{})
	if got := AppendTraceID(body, ""); len(got) != len(body) {
		t.Error("empty id grew the body")
	}
	long := TraceID(strings.Repeat("x", MaxTraceIDLen+1))
	if got := AppendTraceID(body, long); len(got) != len(body) {
		t.Error("oversized id was attached")
	}
	max := TraceID(strings.Repeat("y", MaxTraceIDLen))
	_, tr, err := DecodeWithTrailers(AppendTraceID(body, max))
	if err != nil || tr.Trace != max {
		t.Errorf("max-length id round trip: id=%q err=%v", tr.Trace, err)
	}
}

func TestDensityHistoryRoundTrip(t *testing.T) {
	if _, err := Decode(mustEncode(t, &DensityHistory{})); err != nil {
		t.Fatalf("DensityHistory: %v", err)
	}
	res := &DensityHistoryResult{Samples: []telemetry.DensitySample{
		{At: 1e9, Density: 0.25, Used: 400, Boundary: 0},
		{At: 2e9, Density: 0.75, Used: 1000, Boundary: 0.5},
	}}
	m, err := Decode(mustEncode(t, res))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	got, ok := m.(*DensityHistoryResult)
	if !ok {
		t.Fatalf("decoded %T", m)
	}
	if len(got.Samples) != 2 || got.Samples[1] != res.Samples[1] {
		t.Errorf("samples = %+v, want %+v", got.Samples, res.Samples)
	}
}

func TestDensityHistoryResultRejectsOversizedCount(t *testing.T) {
	// A claimed count the body cannot hold must fail before allocating.
	body := []byte{uint8(OpDensityHistoryResult), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := Decode(body); err == nil {
		t.Error("oversized sample count decoded")
	}
}
