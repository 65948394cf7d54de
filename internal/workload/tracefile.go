package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"fedpower/internal/sim"
)

// Segment is one piece of a trace-driven application: a number of
// instructions executed under fixed micro-architectural characteristics.
type Segment struct {
	Instr  float64
	Demand sim.Demand
}

// TraceApp is an application defined by an explicit demand trace rather
// than a parametric phase model. It is the substitution path for real
// workload characterisations: profile a production application once
// (instructions, CPI, MPKI per program region), export the segments, and
// replay them against the simulator. TraceApp implements sim.Workload.
type TraceApp struct {
	name     string
	segments []Segment
	total    float64
	executed float64
}

// NewTraceApp builds a trace-driven application. At least one segment is
// required; every segment needs positive instructions and physically
// meaningful demand values.
func NewTraceApp(name string, segments []Segment) (*TraceApp, error) {
	if name == "" {
		return nil, fmt.Errorf("workload: trace app with empty name")
	}
	if len(segments) == 0 {
		return nil, fmt.Errorf("workload: trace app %s has no segments", name)
	}
	total := 0.0
	for i, s := range segments {
		if s.Instr <= 0 {
			return nil, fmt.Errorf("workload: trace app %s segment %d has non-positive instructions", name, i)
		}
		d := s.Demand
		if d.BaseCPI <= 0 || d.APKI <= 0 || d.MPKI < 0 || d.MPKI > d.APKI ||
			d.MemLatencyNs < 0 || d.Activity <= 0 {
			return nil, fmt.Errorf("workload: trace app %s segment %d has invalid demand %+v", name, i, d)
		}
		total += s.Instr
	}
	return &TraceApp{
		name:     name,
		segments: append([]Segment(nil), segments...),
		total:    total,
	}, nil
}

// Name implements sim.Workload.
func (a *TraceApp) Name() string { return a.name }

// Demand implements sim.Workload: the demand of the segment covering the
// current execution point (the last segment once the trace is exhausted).
func (a *TraceApp) Demand() sim.Demand {
	acc := 0.0
	for _, s := range a.segments {
		acc += s.Instr
		if a.executed < acc {
			return s.Demand
		}
	}
	return a.segments[len(a.segments)-1].Demand
}

// Advance implements sim.Workload.
func (a *TraceApp) Advance(instr float64) {
	if instr < 0 {
		panic(fmt.Sprintf("workload: trace app %s Advance by negative %v", a.name, instr))
	}
	a.executed += instr
}

// Remaining implements sim.Workload.
func (a *TraceApp) Remaining() float64 { return a.total - a.executed }

// Reset implements sim.Workload.
func (a *TraceApp) Reset() { a.executed = 0 }

// TotalInstr returns the trace's total instruction count.
func (a *TraceApp) TotalInstr() float64 { return a.total }

var _ sim.Workload = (*TraceApp)(nil)

// traceCSVHeader is the column order expected by LoadTraceCSV.
var traceCSVHeader = []string{"instr", "base_cpi", "mpki", "apki", "mem_latency_ns", "activity"}

// LoadTraceCSV reads a demand trace in CSV form — one segment per row with
// the columns instr, base_cpi, mpki, apki, mem_latency_ns, activity — and
// returns a TraceApp. A header row matching those column names is required.
func LoadTraceCSV(name string, r io.Reader) (*TraceApp, error) {
	records, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("workload: read trace csv: %w", err)
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("workload: trace csv needs a header and at least one segment")
	}
	if len(records[0]) != len(traceCSVHeader) {
		return nil, fmt.Errorf("workload: trace csv header has %d columns, want %d", len(records[0]), len(traceCSVHeader))
	}
	for i, want := range traceCSVHeader {
		if records[0][i] != want {
			return nil, fmt.Errorf("workload: trace csv column %d is %q, want %q", i, records[0][i], want)
		}
	}
	segments := make([]Segment, 0, len(records)-1)
	for ri, rec := range records[1:] {
		vals := make([]float64, len(traceCSVHeader))
		for ci, cell := range rec {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("workload: trace csv row %d column %s: %w", ri+1, traceCSVHeader[ci], err)
			}
			vals[ci] = v
		}
		segments = append(segments, Segment{
			Instr: vals[0],
			Demand: sim.Demand{
				BaseCPI:      vals[1],
				MPKI:         vals[2],
				APKI:         vals[3],
				MemLatencyNs: vals[4],
				Activity:     vals[5],
			},
		})
	}
	return NewTraceApp(name, segments)
}

// WriteTraceCSV serialises a TraceApp's segments in the LoadTraceCSV
// format, enabling round-tripping of captured characterisations.
func WriteTraceCSV(w io.Writer, app *TraceApp) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(traceCSVHeader); err != nil {
		return fmt.Errorf("workload: write trace header: %w", err)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }
	for _, s := range app.segments {
		row := []string{
			f(s.Instr), f(s.Demand.BaseCPI), f(s.Demand.MPKI),
			f(s.Demand.APKI), f(s.Demand.MemLatencyNs), f(s.Demand.Activity),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("workload: write trace row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
