package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// The golden corpus pins the wire image of every opcode: one frame body per
// registered opcode with every field non-zero, plus PUT under every trailer
// combination, as hex under testdata/golden. There is deliberately no
// -update flag: pinned bytes change only by hand. To add a message, add its
// case below and run the test; it prints the hex to save as the new file.

const goldenDir = "testdata/golden"

// goldenCase is one pinned frame body: the message, the trailers stamped
// after it (in order) and what DecodeWithTrailers must report for them.
type goldenCase struct {
	name    string // file stem under goldenDir
	msg     Message
	stamp   []func([]byte) []byte
	trailed Trailers
}

func mustFunc[F importance.Function](f F, err error) importance.Function {
	if err != nil {
		panic(err)
	}
	return f
}

func goldenCases() []goldenCase {
	day := importance.Day
	piecewise := mustFunc(importance.NewPiecewise([]importance.Point{
		{Age: 0, Value: 1},
		{Age: 10 * day, Value: 0.5},
		{Age: 20 * day, Value: 0.25},
	}))
	twoStep := importance.TwoStep{Plateau: 0.75, Persist: 15 * day, Wane: 30 * day}
	minOf := mustFunc(importance.NewMin(
		importance.Constant{Level: 0.5},
		importance.Linear{Start: 1, Expire: 40 * day},
	))
	product := mustFunc(importance.NewProduct(
		importance.Exponential{Start: 1, HalfLife: 5 * day, Expire: 50 * day},
		importance.Constant{Level: 0.9},
	))
	entries := []IndexEntry{
		{ID: "a/1", Version: 2, CRC: 0xDEADBEEF, Size: 4096, Initial: 0.9, AgeNanos: int64(time.Hour)},
		{ID: "b/2", Version: 1, CRC: 7, Size: 1, Initial: 1, AgeNanos: 5},
	}
	members := []MemberInfo{
		{Addr: "10.0.0.1:7070", Incarnation: 11, Version: 3, Boundary: 0.25, Free: 1 << 30,
			Density: 0.8, Alive: true, Device: "ab12cd34ef56", ConfigVersion: 3},
		{Addr: "10.0.0.2:7070", Incarnation: 9, Version: 88, Boundary: 0.5, Free: 1 << 20,
			Density: 0.1, Alive: true, Device: "0123456789ab", ConfigVersion: 2},
	}
	cfg := ClusterConfig{
		Version: 3, Origin: "10.0.0.1:7070", Replicas: 2, Threshold: 0.8,
		GossipIntervalNanos: int64(time.Second), RepairIntervalNanos: int64(30 * time.Second),
	}
	put := &Put{
		ID: "cs101/l1", Owner: "prof", Class: object.ClassUniversity,
		Version: 2, Importance: piecewise, Payload: []byte("video-bytes"),
	}
	putResult := &PutResult{Admitted: true, Boundary: 0.25, Reason: 2, Evicted: []object.ID{"x", "y/z"}}
	msgs := []Message{
		put,
		&Get{ID: "a/b"},
		&Delete{ID: "a/c"},
		&Stat{},
		&Probe{Size: 1 << 30, Importance: minOf},
		&Density{},
		&List{},
		&Rejuvenate{ID: "o/1", Importance: product},
		&Update{ID: "o/2", Owner: "u", Class: object.ClassStudent, Importance: twoStep, Payload: []byte("v2")},
		&DensityHistory{},
		&Batch{Subs: []Message{
			put,
			&Get{ID: "a/b"},
			&Delete{ID: "a/c"},
			&Stat{},
			&Update{ID: "o/2", Owner: "u", Class: object.ClassStudent, Importance: twoStep, Payload: []byte("v2")},
		}},
		&Replicate{
			ID: "cs101/l2", Owner: "peer", Class: object.ClassUniversity, Version: 3,
			Importance: twoStep, AgeNanos: int64(3 * time.Hour), Payload: []byte("replica-bytes"),
		},
		&Index{Threshold: 0.5},
		&Gossip{From: members[0], Epoch: 4, ShareValue: 0.41, ShareWeight: 0.5, Members: members, Config: cfg},
		&Members{},
		&RepairStatus{},
		&TraceDump{Trace: "9f3a1c2b-000001"},
		&Events{Limit: 128},
		&IndexDelta{
			From: "10.0.0.1:7070", Threshold: 0.8, BaseSeq: 6, Seq: 7, Full: true,
			Upserts: entries, Removed: []object.ID{"e", "f/g"},
		},
		putResult,
		&ObjectMsg{
			ID: "o/3", Owner: "u", Class: object.ClassStudent, Version: 1,
			Importance: piecewise, AgeNanos: int64(3 * time.Hour),
			CurrentImportance: 0.5, Payload: []byte{0, 1, 2, 0xFF},
		},
		&OK{},
		&StatResult{Capacity: 80 << 30, Used: 1 << 20, Objects: 42, Density: 0.8369,
			Shards: []ShardStat{
				{Capacity: 40 << 30, Used: 1 << 19, Objects: 21, Density: 0.91, Boundary: 0.125},
				{Capacity: 40 << 30, Used: 1 << 19, Objects: 21, Density: 0.77, Boundary: 0.0625},
			}},
		&ProbeResult{Admissible: true, Boundary: 0.3},
		&DensityResult{Density: 0.5},
		&ListResult{IDs: []object.ID{"a", "b/c", "d"}},
		&ErrorMsg{Code: CodeNotFound, Text: "nope"},
		&RejuvenateResult{Version: 3},
		&DensityHistoryResult{Samples: []HistorySample{
			{AtNanos: 1e9, Density: 0.25, Used: 400, Boundary: 0.125},
			{AtNanos: 2e9, Density: 0.75, Used: 1000, Boundary: 0.5},
		}},
		&BatchResult{Results: []Message{
			putResult,
			&ErrorMsg{Code: CodeDuplicate, Text: "duplicate object ID"},
			&OK{},
			&RejuvenateResult{Version: 4},
		}},
		&IndexResult{Entries: entries},
		&GossipResult{Epoch: 4, ShareValue: 0.2, ShareWeight: 0.25, Members: members, Config: cfg},
		&MembersResult{Members: members},
		&RepairStatusResult{
			Replicas: 2, Threshold: 0.8, Pushed: 100, Pulled: 7,
			PushFailures: 1, Passes: 12, UnderReplicated: 3, Pending: 1,
			BytesRepaired: 1 << 20, LastPassNanos: int64(250 * time.Millisecond),
		},
		&TraceDumpResult{Node: "10.0.0.1:7070", Spans: []Span{
			{Trace: "9f3a1c2b-000001", ID: 7, Parent: 3, Name: "put", Node: "10.0.0.1:7070",
				Peer: "10.0.0.9:7070", StartUnixNanos: 1700000000000000000, DurationNanos: 250000, Note: "admitted"},
			{Trace: "9f3a1c2b-000001", ID: 8, Parent: 7, Name: "replicate", Node: "10.0.0.2:7070",
				Peer: "10.0.0.1:7070", StartUnixNanos: 1700000000000100000, DurationNanos: 4096, Note: "ok"},
		}},
		&EventsResult{Node: "10.0.0.2:7070", Events: []EventRecord{
			{Seq: 1, WallUnixNanos: 99, Kind: 2, ID: "a/1", Peer: "10.0.0.1:7070", Trace: "t-1",
				Importance: 0.9, Boundary: 0.2, Detail: "evicted"},
			{Seq: 2, WallUnixNanos: 100, Kind: 5, ID: "b/2", Peer: "10.0.0.3:7070", Trace: "t-2",
				Importance: 0.8, Boundary: 0.1, Detail: "pulled"},
		}},
		&IndexDeltaResult{Resync: true, AckSeq: 7, Missing: entries, Need: []object.ID{"c", "h/i"}},
	}
	cases := make([]goldenCase, 0, len(msgs)+10)
	for _, m := range msgs {
		cases = append(cases, goldenCase{name: m.Op().String(), msg: m})
	}

	// PUT under every trailer subset, and the multi-trailer ones in a second
	// order: trailers may arrive in any order and must parse the same.
	const traceID, seqID, spanID, parentID = "ab12-000017", 0x0102030405060708, 42, 7
	trace := func(b []byte) []byte { return AppendTraceID(b, traceID) }
	seq := func(b []byte) []byte { return AppendSeq(b, seqID) }
	span := func(b []byte) []byte { return AppendSpan(b, spanID, parentID) }
	type stamp = []func([]byte) []byte
	traceSeq := Trailers{Trace: traceID, Seq: seqID, HasSeq: true}
	all := Trailers{Trace: traceID, Seq: seqID, HasSeq: true, Span: spanID, Parent: parentID, HasSpan: true}
	cases = append(cases,
		goldenCase{"PUT+trace", put, stamp{trace}, Trailers{Trace: traceID}},
		goldenCase{"PUT+seq", put, stamp{seq}, Trailers{Seq: seqID, HasSeq: true}},
		goldenCase{"PUT+span", put, stamp{span}, Trailers{Span: spanID, Parent: parentID, HasSpan: true}},
		goldenCase{"PUT+trace+seq", put, stamp{trace, seq}, traceSeq},
		goldenCase{"PUT+seq+trace", put, stamp{seq, trace}, traceSeq},
		goldenCase{"PUT+trace+span", put, stamp{trace, span}, Trailers{Trace: traceID, Span: spanID, Parent: parentID, HasSpan: true}},
		goldenCase{"PUT+seq+span", put, stamp{seq, span}, Trailers{Seq: seqID, HasSeq: true, Span: spanID, Parent: parentID, HasSpan: true}},
		goldenCase{"PUT+trace+seq+span", put, stamp{trace, seq, span}, all},
		goldenCase{"PUT+span+seq+trace", put, stamp{span, seq, trace}, all},
	)
	return cases
}

// formatHex renders a body as the golden files hold it: 32 bytes a line.
func formatHex(b []byte) string {
	var sb strings.Builder
	for len(b) > 0 {
		n := min(32, len(b))
		sb.WriteString(hex.EncodeToString(b[:n]))
		sb.WriteByte('\n')
		b = b[n:]
	}
	return sb.String()
}

func readGolden(path string) ([]byte, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
}

// goldenBodies returns every pinned frame body in file-name order: the seed
// corpus for the fuzz and mutation tests.
func goldenBodies(tb testing.TB) [][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join(goldenDir, "*.hex"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no golden corpus under %s: %v", goldenDir, err)
	}
	sort.Strings(paths)
	bodies := make([][]byte, 0, len(paths))
	for _, p := range paths {
		b, err := readGolden(p)
		if err != nil {
			tb.Fatalf("golden file %s: %v", p, err)
		}
		bodies = append(bodies, b)
	}
	return bodies
}

// requireNonZero fails for any field of v left at its zero value and for any
// list shorter than two elements: a golden message that skips a field pins
// nothing about it.
func requireNonZero(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			t.Errorf("%s is nil", path)
			return
		}
		requireNonZero(t, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				requireNonZero(t, path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if v.Len() == 0 {
				t.Errorf("%s is empty", path)
			}
			return
		}
		if v.Len() < 2 {
			t.Errorf("%s has %d elements, want at least 2", path, v.Len())
		}
		for i := 0; i < v.Len(); i++ {
			requireNonZero(t, path, v.Index(i))
		}
	default:
		if v.IsZero() {
			t.Errorf("%s is zero", path)
		}
	}
}

func TestGoldenCorpus(t *testing.T) {
	covered := make(map[Op]bool)
	named := make(map[string]bool)
	for _, tc := range goldenCases() {
		named[tc.name+".hex"] = true
		if len(tc.stamp) == 0 {
			covered[tc.msg.Op()] = true
		}
		t.Run(tc.name, func(t *testing.T) {
			requireNonZero(t, tc.name, reflect.ValueOf(tc.msg))
			body, err := Encode(tc.msg)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			for _, stamp := range tc.stamp {
				body = stamp(body)
			}
			path := filepath.Join(goldenDir, tc.name+".hex")
			want, err := readGolden(path)
			if err != nil {
				t.Fatalf("no usable golden file (%v); the current encoding, to save as %s:\n%s", err, path, formatHex(body))
			}
			if !bytes.Equal(body, want) {
				t.Errorf("encoding differs from %s\n got:\n%swant:\n%s", path, formatHex(body), formatHex(want))
			}
			m, tr, err := DecodeWithTrailers(want)
			if err != nil {
				t.Fatalf("DecodeWithTrailers: %v", err)
			}
			if !reflect.DeepEqual(m, tc.msg) {
				t.Errorf("DecodeWithTrailers message = %#v\nwant %#v", m, tc.msg)
			}
			if tr != tc.trailed {
				t.Errorf("trailers = %+v, want %+v", tr, tc.trailed)
			}
			if m, err := Decode(want); err != nil || !reflect.DeepEqual(m, tc.msg) {
				t.Errorf("Decode = %#v, %v\nwant %#v", m, err, tc.msg)
			}
		})
	}
	// Every registered opcode is pinned. Registered means it has a mnemonic:
	// unknown opcodes print as OP(n).
	for i := 0; i < 256; i++ {
		if op := Op(i); !strings.HasPrefix(op.String(), "OP(") && !covered[op] {
			t.Errorf("opcode %v (%d) has no golden case; add one to goldenCases and save the hex this test prints as %s/%v.hex",
				op, i, goldenDir, op)
		}
	}
	// And every pinned file still belongs to a case.
	paths, err := filepath.Glob(filepath.Join(goldenDir, "*.hex"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if !named[filepath.Base(p)] {
			t.Errorf("golden file %s matches no case", p)
		}
	}
}

// TestRetiredOpcodesStayRetired: INDEX_DIFF (14) and INDEX_DIFF_RESULT (140)
// were retired for INDEX_DELTA. Their numbers stay unassigned -- a frame
// carrying one is an unknown opcode, never some newer message -- and every
// opcode declared after them keeps the number deployed peers speak.
func TestRetiredOpcodesStayRetired(t *testing.T) {
	for _, op := range []byte{14, 140} {
		if _, err := Decode([]byte{op, 0, 0, 0, 0, 0, 0, 0, 0}); !errors.Is(err, ErrUnknownOp) {
			t.Errorf("Decode of a frame with opcode %d: err = %v, want ErrUnknownOp", op, err)
		}
		if got, want := Op(op).String(), fmt.Sprintf("OP(%d)", op); got != want {
			t.Errorf("Op(%d) = %q, want %q", op, got, want)
		}
	}
	pinned := map[Op]uint8{
		OpIndex: 13, OpGossip: 15, OpMembers: 16, OpRepairStatus: 17,
		OpTraceDump: 18, OpEvents: 19, OpIndexDelta: 20,
		OpIndexResult: 139, OpGossipResult: 141, OpMembersResult: 142, OpRepairStatusResult: 143,
		OpTraceDumpResult: 144, OpEventsResult: 145, OpIndexDeltaResult: 146,
	}
	for op, want := range pinned {
		if uint8(op) != want {
			t.Errorf("%v = %d, want %d", op, uint8(op), want)
		}
	}
}
