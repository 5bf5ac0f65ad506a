package workload

import (
	"errors"
	"strings"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/sim"
)

const sampleTrace = `t,id,size_bytes,importance,owner,class
1h0m0s,lec/1,1024,"twostep:p=1,persist=15d,wane=15d",prof,1
2h0m0s,cache/1,512,dirac,,0
30d,lec/2,2048,constant:p=0.5,student,2
`

func TestReadTrace(t *testing.T) {
	rows, err := ReadTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0].At != time.Hour || rows[0].ID != "lec/1" || rows[0].Size != 1024 ||
		rows[0].Owner != "prof" || rows[0].Class != object.ClassUniversity {
		t.Errorf("row 0 = %+v", rows[0])
	}
	if got := rows[0].Importance.At(10 * day); got != 1 {
		t.Errorf("row 0 importance at 10d = %v, want plateau 1", got)
	}
	if rows[1].Importance.At(0) != 0 {
		t.Errorf("row 1 should be Dirac")
	}
	if rows[2].At != 30*day || rows[2].Class != object.ClassStudent {
		t.Errorf("row 2 = %+v", rows[2])
	}
}

func TestReadTraceErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad header", "time,id,size\n"},
		{"wrong column count", "t,id,size_bytes,importance,owner,class\n1h,x,1\n"},
		{"bad duration", "t,id,size_bytes,importance,owner,class\nsoon,x,1,dirac,,0\n"},
		{"empty id", "t,id,size_bytes,importance,owner,class\n1h,,1,dirac,,0\n"},
		{"bad size", "t,id,size_bytes,importance,owner,class\n1h,x,big,dirac,,0\n"},
		{"zero size", "t,id,size_bytes,importance,owner,class\n1h,x,0,dirac,,0\n"},
		{"bad importance", "t,id,size_bytes,importance,owner,class\n1h,x,1,cliff,,0\n"},
		{"bad class", "t,id,size_bytes,importance,owner,class\n1h,x,1,dirac,,two\n"},
		{"unsorted", "t,id,size_bytes,importance,owner,class\n2h,x,1,dirac,,0\n1h,y,1,dirac,,0\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadTrace(strings.NewReader(tt.in)); !errors.Is(err, ErrBadTrace) {
				t.Errorf("err = %v, want ErrBadTrace", err)
			}
		})
	}
}

func TestTraceRoundTrip(t *testing.T) {
	orig, err := ReadTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	var b strings.Builder
	if err := WriteTrace(&b, orig); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	again, err := ReadTrace(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ReadTrace(round trip): %v", err)
	}
	if len(again) != len(orig) {
		t.Fatalf("round trip changed row count: %d vs %d", len(again), len(orig))
	}
	for i := range orig {
		a, b := orig[i], again[i]
		if a.At != b.At || a.ID != b.ID || a.Size != b.Size ||
			a.Owner != b.Owner || a.Class != b.Class {
			t.Errorf("row %d changed: %+v vs %+v", i, a, b)
		}
		for _, age := range []time.Duration{0, 10 * day, 40 * day} {
			if a.Importance.At(age) != b.Importance.At(age) {
				t.Errorf("row %d importance changed at %v", i, age)
			}
		}
	}
}

func TestReplayInstall(t *testing.T) {
	rows, err := ReadTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	eng := sim.NewEngine()
	sink := &collectSink{}
	rep := &Replay{Rows: rows}
	// Horizon cuts off the 30-day row.
	skipped, err := rep.Install(eng, sink, 10*day)
	if err != nil {
		t.Fatalf("Install: %v", err)
	}
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1", skipped)
	}
	eng.Run(10 * day)
	if err := rep.Err(); err != nil {
		t.Fatalf("replay error: %v", err)
	}
	if len(sink.objects) != 2 {
		t.Fatalf("offered = %d, want 2", len(sink.objects))
	}
	if sink.objects[0].ID != "lec/1" || sink.times[0] != time.Hour {
		t.Errorf("first offer = %v at %v", sink.objects[0].ID, sink.times[0])
	}
	if sink.objects[0].Owner() != "prof" || sink.objects[0].Class != object.ClassUniversity {
		t.Errorf("metadata lost: %+v", sink.objects[0])
	}
}

func TestReplayValidation(t *testing.T) {
	rep := &Replay{}
	if _, err := rep.Install(nil, &collectSink{}, day); !errors.Is(err, ErrNilEngine) {
		t.Errorf("nil engine err = %v", err)
	}
	if _, err := rep.Install(sim.NewEngine(), nil, day); !errors.Is(err, ErrNilSink) {
		t.Errorf("nil sink err = %v", err)
	}
}

func TestReplaySinkError(t *testing.T) {
	rows := []TraceRow{{At: time.Hour, ID: "x", Size: 1, Importance: importance.Dirac{}}}
	eng := sim.NewEngine()
	boom := errors.New("boom")
	rep := &Replay{Rows: rows}
	if _, err := rep.Install(eng, SinkFunc(func(*object.Object, time.Duration) error {
		return boom
	}), day); err != nil {
		t.Fatalf("Install: %v", err)
	}
	eng.Run(day)
	if !errors.Is(rep.Err(), boom) {
		t.Errorf("Err = %v, want boom", rep.Err())
	}
}
