package workload

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
	"besteffs/internal/sim"
)

// TraceRow is one arrival of a recorded or hand-written trace.
type TraceRow struct {
	// At is the arrival's virtual time.
	At time.Duration
	// ID names the object; unique within the trace.
	ID object.ID
	// Size is the payload size in bytes.
	Size int64
	// Importance is the annotation.
	Importance importance.Function
	// Owner and Class are optional creator metadata.
	Owner string
	Class object.Class
}

// traceHeader is the canonical CSV column order.
var traceHeader = []string{"t", "id", "size_bytes", "importance", "owner", "class"}

// ErrBadTrace reports an unparsable trace file.
var ErrBadTrace = errors.New("workload: bad trace")

// ReadTrace parses a CSV arrival trace. The format is one header line
// ("t,id,size_bytes,importance,owner,class") followed by one row per
// arrival: t is a Go duration with the day extension ("36h", "30d"), the
// importance column uses the spec syntax ("twostep:p=1,persist=15d,wane=15d"),
// owner may be empty and class is the integer object class. Rows must be
// sorted by non-decreasing t.
func ReadTrace(r io.Reader) ([]TraceRow, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(traceHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("%w: read header: %v", ErrBadTrace, err)
	}
	for i, want := range traceHeader {
		if header[i] != want {
			return nil, fmt.Errorf("%w: header column %d is %q, want %q",
				ErrBadTrace, i, header[i], want)
		}
	}
	var rows []TraceRow
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return rows, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadTrace, line, err)
		}
		row, err := parseTraceRow(rec)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadTrace, line, err)
		}
		if n := len(rows); n > 0 && row.At < rows[n-1].At {
			return nil, fmt.Errorf("%w: line %d: arrivals not sorted by time", ErrBadTrace, line)
		}
		rows = append(rows, row)
	}
}

func parseTraceRow(rec []string) (TraceRow, error) {
	var row TraceRow
	at, err := importance.ParseDuration(rec[0])
	if err != nil {
		return TraceRow{}, fmt.Errorf("t: %v", err)
	}
	row.At = at
	if rec[1] == "" {
		return TraceRow{}, errors.New("empty id")
	}
	row.ID = object.ID(rec[1])
	size, err := strconv.ParseInt(rec[2], 10, 64)
	if err != nil {
		return TraceRow{}, fmt.Errorf("size: %v", err)
	}
	if size <= 0 {
		return TraceRow{}, fmt.Errorf("size %d must be positive", size)
	}
	row.Size = size
	if row.Importance, err = importance.ParseSpec(rec[3]); err != nil {
		return TraceRow{}, fmt.Errorf("importance: %v", err)
	}
	row.Owner = rec[4]
	class, err := strconv.Atoi(rec[5])
	if err != nil {
		return TraceRow{}, fmt.Errorf("class: %v", err)
	}
	row.Class = object.Class(class)
	return row, nil
}

// WriteTrace emits rows in the CSV format ReadTrace accepts, so a run's
// arrival log round-trips to a file and back.
func WriteTrace(w io.Writer, rows []TraceRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(traceHeader); err != nil {
		return fmt.Errorf("workload: write trace: %w", err)
	}
	for _, row := range rows {
		spec, err := importance.FormatSpec(row.Importance)
		if err != nil {
			return fmt.Errorf("workload: write trace %s: %w", row.ID, err)
		}
		rec := []string{
			row.At.String(),
			string(row.ID),
			strconv.FormatInt(row.Size, 10),
			spec,
			row.Owner,
			strconv.Itoa(int(row.Class)),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("workload: write trace: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("workload: write trace: %w", err)
	}
	return nil
}

// Replay schedules a parsed trace onto the engine, offering each arrival
// to the sink at its recorded time.
type Replay struct {
	// Rows is the trace, sorted by time (as ReadTrace guarantees).
	Rows []TraceRow

	errCollector
}

// Install schedules the replay. Rows at or beyond the horizon are skipped
// and counted.
func (r *Replay) Install(eng *sim.Engine, sink Sink, horizon time.Duration) (skipped int, err error) {
	if eng == nil {
		return 0, ErrNilEngine
	}
	if sink == nil {
		return 0, ErrNilSink
	}
	for _, row := range r.Rows {
		if row.At >= horizon {
			skipped++
			continue
		}
		row := row
		err := eng.Schedule(row.At, func(now time.Duration) {
			o, err := object.New(row.ID, row.Size, now, row.Importance)
			if err != nil {
				r.record(fmt.Errorf("workload: replay %s: %w", row.ID, err))
				return
			}
			o.SetOwner(row.Owner)
			o.Class = row.Class
			if err := sink.Offer(o, now); err != nil {
				r.record(err)
			}
		})
		if err != nil {
			return skipped, fmt.Errorf("workload: replay: %w", err)
		}
	}
	return skipped, nil
}
