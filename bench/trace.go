package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spanName identifies what a span timed. The client-call spans (put, get,
// delete, putbatch) each cover one call into internal/client; gen and verify
// are the harness's own steps around them.
type spanName uint8

const (
	spanGen spanName = iota
	spanPut
	spanPutBatch
	spanGet
	spanDelete
	spanVerify
	numSpanNames
)

func (n spanName) String() string {
	return [...]string{"gen", "put", "putbatch", "get", "delete", "verify"}[n]
}

// spanRec is one recorded span. Every span's parent is the workload span
// (the window); spans of one operation share its op number.
type spanRec struct {
	name       spanName
	op         int64
	start, end int64 // ns since the window opened
}

// spanLog keeps one connection's spans in memory until the run ends.
type spanLog struct {
	conn  int
	start time.Time
	recs  []spanRec
}

func (l *spanLog) add(name spanName, op int64, start, end time.Time) {
	l.recs = append(l.recs, spanRec{
		name: name, op: op,
		start: int64(start.Sub(l.start)), end: int64(end.Sub(l.start)),
	})
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	P50US   float64 `json:"p50_us"`
}

// summarize totals the spans per name and derives the workload span's self
// time: the window minus what its children cover, per connection.
func summarize(logs []*spanLog, window time.Duration) (byName []spanSummary, selfMS float64) {
	durs := make([][]int64, numSpanNames)
	covered := int64(0)
	for _, l := range logs {
		for _, r := range l.recs {
			durs[r.name] = append(durs[r.name], r.end-r.start)
			covered += r.end - r.start
		}
	}
	for n, d := range durs {
		if len(d) == 0 {
			continue
		}
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		total := int64(0)
		for _, v := range d {
			total += v
		}
		byName = append(byName, spanSummary{
			Name: spanName(n).String(), Count: len(d),
			TotalMS: float64(total) / 1e6, P50US: percentile(d, 0.5) / 1e3,
		})
	}
	selfMS = (float64(window)*float64(len(logs)) - float64(covered)) / 1e6
	return byName, selfMS
}

// traceHeader is everything in a trace file but the spans.
type traceHeader struct {
	Env      environment        `json:"env"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	WindowS  float64            `json:"window_s"`
	Summary  []spanSummary      `json:"summary"`
	SelfMS   float64            `json:"workload_span_self_ms"`
	Metrics  map[string]float64 `json:"window_metrics"`
}

// writeTrace writes the spans of a traced window to
// bench/out/trace-<workload>.json. The file is one JSON object; the spans
// are streamed so a long window does not need a second copy in memory.
func writeTrace(root string, hdr traceHeader, logs []*spanLog) (string, error) {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+hdr.Workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	head, err := json.Marshal(hdr)
	if err != nil {
		return "", err
	}
	// Splice the span array into the header object.
	bw.Write(head[:len(head)-1])
	bw.WriteString(`,"span_fields":["name","conn","op","parent","start_ns","end_ns"],"spans":[`)
	first := true
	for _, l := range logs {
		for _, r := range l.recs {
			if !first {
				bw.WriteByte(',')
			}
			first = false
			fmt.Fprintf(bw, "\n[%q,%d,%d,\"workload\",%d,%d]", r.name.String(), l.conn, r.op, r.start, r.end)
		}
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
