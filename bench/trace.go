package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// span is one timed call into a layer. parent indexes the enclosing span
// (-1 for an op's root span) and op is the step/round/run number all spans
// of one operation share. Times are nanoseconds since the tracer's base.
type span struct {
	name, parent int32
	op           int64
	start, end   int64
}

// tracer keeps every span of a traced pass in memory; nothing is written
// or aggregated until the pass is over. It is used from one goroutine.
type tracer struct {
	base  time.Time
	names []string
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

// now reads the monotonic clock relative to the tracer's base.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// name interns a span name.
func (t *tracer) name(s string) int32 {
	t.names = append(t.names, s)
	return int32(len(t.names) - 1)
}

// add records a finished span and returns its index for use as a parent.
func (t *tracer) add(name, parent int32, op, start, end int64) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover: children are clipped to the parent and
// overlapping children count once.
func selfTimes(spans []span) []int64 {
	first := make([]int32, len(spans)) // first child, then next sibling chain
	next := make([]int32, len(spans))
	for i := range first {
		first[i], next[i] = -1, -1
	}
	for i := len(spans) - 1; i >= 0; i-- {
		if p := spans[i].parent; p >= 0 {
			next[i] = first[p]
			first[p] = int32(i)
		}
	}
	self := make([]int64, len(spans))
	var kids [][2]int64
	for i, s := range spans {
		kids = kids[:0]
		for c := first[i]; c >= 0; c = next[c] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				kids = append(kids, [2]int64{lo, hi})
			}
		}
		slices.SortFunc(kids, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		covered, edge := int64(0), s.start
		for _, k := range kids {
			if k[1] > edge {
				covered += k[1] - max(k[0], edge)
				edge = k[1]
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerRow is one line of the layer table: the summed self time of every
// span of one name.
type layerRow struct {
	Name   string  `json:"name"`
	Count  int64   `json:"count"`
	SelfNs int64   `json:"self_ns"`
	Share  float64 `json:"share"` // of the traced wall-clock
}

// layerTable aggregates self times by span name, in first-seen order.
func (t *tracer) layerTable(wallNs int64) []layerRow {
	self := selfTimes(t.spans)
	rows := make([]layerRow, len(t.names))
	for i, n := range t.names {
		rows[i].Name = n
	}
	for i, s := range t.spans {
		rows[s.name].Count++
		rows[s.name].SelfNs += self[i]
	}
	for i := range rows {
		rows[i].Share = float64(rows[i].SelfNs) / float64(wallNs)
	}
	return rows
}

// meanSelf is a row's self time per span, in nanoseconds.
func (r layerRow) meanSelf() float64 {
	if r.Count == 0 {
		return 0
	}
	return float64(r.SelfNs) / float64(r.Count)
}

// rowByName finds a layer row; absent layers read as the zero row.
func rowByName(rows []layerRow, name string) layerRow {
	for _, r := range rows {
		if r.Name == name {
			return r
		}
	}
	return layerRow{Name: name}
}

// write dumps every span to dir/<workload>.trace.json as
// {"names":[...],"spans":[[name,parent,op,start_ns,end_ns],...]}.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := []byte(`{"names":[`)
	for i, n := range t.names {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendQuote(buf, n)
	}
	buf = append(buf, `],"spans":[`...)
	for i, s := range t.spans {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(s.name), 10)
		for _, v := range [...]int64{int64(s.parent), s.op, s.start, s.end} {
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, v, 10)
		}
		buf = append(buf, ']')
		if len(buf) > 1<<16 {
			_, _ = w.Write(buf) // a failed write surfaces at Flush
			buf = buf[:0]
		}
	}
	buf = append(buf, "]}\n"...)
	_, _ = w.Write(buf)
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("trace write: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace close: %w", err)
	}
	return nil
}
