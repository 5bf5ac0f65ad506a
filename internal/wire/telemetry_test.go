package wire

import (
	"bytes"
	"testing"
	"time"

	"besteffs/internal/telemetry"
)

func TestTelemetryMessageRoundTrips(t *testing.T) {
	spans := []telemetry.Span{
		{Trace: "9f3a1c2b-000001", ID: 7, Parent: 0, Name: "put", Node: "10.0.0.1:7070",
			Start: time.Unix(0, 1700000000000000000), Duration: 250000, Note: "admitted"},
		{Trace: "9f3a1c2b-000001", ID: 8, Parent: 7, Name: "replicate",
			Node: "10.0.0.2:7070", Peer: "10.0.0.1:7070", Start: time.Unix(0, 1700000000000100000)},
	}
	events := []telemetry.Event{
		{Seq: 0, Wall: time.Unix(0, 99), Kind: telemetry.EventAdmit, ID: "a/1", Importance: 0.9, Boundary: 0.2},
		{Seq: 1, Wall: time.Unix(0, 100), Kind: telemetry.EventReplicaPull, Peer: "10.0.0.3:7070",
			Trace: "9f3a1c2b-000002", Detail: "pulled"},
	}
	tests := []Message{
		&TraceDump{Trace: "9f3a1c2b-000001"},
		&TraceDump{},
		&TraceDumpResult{Node: "10.0.0.1:7070", Spans: spans},
		&TraceDumpResult{},
		&Events{Limit: 128},
		&Events{},
		&EventsResult{Node: "10.0.0.2:7070", Events: events},
		&EventsResult{},
	}
	for _, m := range tests {
		got := roundTrip(t, m)
		if got.Op() != m.Op() {
			t.Fatalf("op = %v, want %v", got.Op(), m.Op())
		}
		a, err := Encode(m)
		if err != nil {
			t.Fatalf("re-encode original: %v", err)
		}
		b, err := Encode(got)
		if err != nil {
			t.Fatalf("re-encode decoded: %v", err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%v round trip changed encoding:\n%v\n%v", m.Op(), a, b)
		}
	}
}

func TestSpanTrailerRoundTrip(t *testing.T) {
	body, err := Encode(&Get{ID: "o"})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	body = AppendTraceID(body, "trace-1")
	body = AppendSpan(body, 42, 7)
	m, tr, err := DecodeWithTrailers(body)
	if err != nil {
		t.Fatalf("DecodeWithTrailers: %v", err)
	}
	if m.Op() != OpGet {
		t.Fatalf("op = %v", m.Op())
	}
	if tr.Trace != "trace-1" || !tr.HasSpan || tr.Span != 42 || tr.Parent != 7 {
		t.Fatalf("trailers = %+v", tr)
	}
}

func TestSpanTrailerZeroRootParent(t *testing.T) {
	body, _ := Encode(&Members{})
	body = AppendSpan(body, 9, 0)
	_, tr, err := DecodeWithTrailers(body)
	if err != nil {
		t.Fatalf("DecodeWithTrailers: %v", err)
	}
	if !tr.HasSpan || tr.Span != 9 || tr.Parent != 0 {
		t.Fatalf("trailers = %+v", tr)
	}
}

func TestAppendSpanZeroIsNoop(t *testing.T) {
	body, _ := Encode(&Members{})
	if got := AppendSpan(body, 0, 12); len(got) != len(body) {
		t.Fatalf("zero span ID appended %d trailer bytes", len(got)-len(body))
	}
}

func TestTruncatedSpanTrailerDiscardsAll(t *testing.T) {
	body, _ := Encode(&Get{ID: "o"})
	body = AppendTraceID(body, "trace-1")
	body = AppendSpan(body, 42, 7)
	_, tr, err := DecodeWithTrailers(body[:len(body)-3])
	if err != nil {
		t.Fatalf("DecodeWithTrailers: %v", err)
	}
	if tr.Trace != "" || tr.HasSpan {
		t.Fatalf("truncated span trailer kept trailers: %+v", tr)
	}
}

func TestLegacyDecodeIgnoresSpanTrailer(t *testing.T) {
	body, _ := Encode(&Get{ID: "o"})
	body = AppendSpan(body, 42, 7)
	m, err := Decode(body)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if m.(*Get).ID != "o" {
		t.Fatalf("decoded %+v", m)
	}
}
