package workload

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"fedpower/internal/sim"
)

func newDeterministicRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

func sampleSegments() []Segment {
	return []Segment{
		{Instr: 1e9, Demand: sim.Demand{BaseCPI: 0.7, MPKI: 2, APKI: 100, MemLatencyNs: 80, Activity: 1.0}},
		{Instr: 2e9, Demand: sim.Demand{BaseCPI: 0.9, MPKI: 20, APKI: 250, MemLatencyNs: 80, Activity: 0.85}},
	}
}

func TestNewTraceAppValidation(t *testing.T) {
	if _, err := NewTraceApp("", sampleSegments()); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewTraceApp("x", nil); err == nil {
		t.Error("no segments accepted")
	}
	bad := sampleSegments()
	bad[0].Instr = 0
	if _, err := NewTraceApp("x", bad); err == nil {
		t.Error("zero-instruction segment accepted")
	}
	bad = sampleSegments()
	bad[1].Demand.MPKI = bad[1].Demand.APKI + 1
	if _, err := NewTraceApp("x", bad); err == nil {
		t.Error("MPKI > APKI accepted")
	}
	bad = sampleSegments()
	bad[0].Demand.Activity = 0
	if _, err := NewTraceApp("x", bad); err == nil {
		t.Error("zero activity accepted")
	}
}

func TestTraceAppLifecycle(t *testing.T) {
	app, err := NewTraceApp("pipeline", sampleSegments())
	if err != nil {
		t.Fatal(err)
	}
	if app.Name() != "pipeline" || app.TotalInstr() != 3e9 {
		t.Fatalf("metadata: %s, %v", app.Name(), app.TotalInstr())
	}
	// Segment 1 demand initially.
	if d := app.Demand(); d.BaseCPI != 0.7 {
		t.Fatalf("initial demand %+v", d)
	}
	app.Advance(1.5e9) // into segment 2
	if d := app.Demand(); d.BaseCPI != 0.9 || d.MPKI != 20 {
		t.Fatalf("segment 2 demand %+v", d)
	}
	app.Advance(2e9) // past the end
	if app.Remaining() > 0 {
		t.Fatalf("remaining %v after overrun", app.Remaining())
	}
	if d := app.Demand(); d.BaseCPI != 0.9 {
		t.Fatal("exhausted trace must report the last segment's demand")
	}
	app.Reset()
	if app.Remaining() != 3e9 || app.Demand().BaseCPI != 0.7 {
		t.Fatal("Reset did not rewind")
	}
}

func TestTraceAppAdvanceNegativePanics(t *testing.T) {
	app, err := NewTraceApp("x", sampleSegments())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance did not panic")
		}
	}()
	app.Advance(-1)
}

func TestTraceAppRunsOnDevice(t *testing.T) {
	// The trace-driven app plugs into the device exactly like a parametric
	// one and exhibits its per-segment power signature.
	app, err := NewTraceApp("mix", sampleSegments())
	if err != nil {
		t.Fatal(err)
	}
	dev := sim.NewDevice(sim.JetsonNanoTable(), sim.DefaultPowerModel(), newDeterministicRand())
	dev.PowerNoiseW, dev.IPCNoiseRel = 0, 0
	dev.Load(app)
	dev.SetLevel(12)
	first := dev.Step(0.5)
	// Compute segment: high IPC, high power.
	for !dev.Done() && app.Demand().BaseCPI == 0.7 {
		dev.Step(0.5)
	}
	second := dev.Step(0.5)
	if second.IPC >= first.IPC {
		t.Fatalf("memory segment IPC %v should be below compute segment %v", second.IPC, first.IPC)
	}
	if second.TruePower >= first.TruePower {
		t.Fatalf("memory segment power %v should be below compute segment %v", second.TruePower, first.TruePower)
	}
}

func TestTraceCSVRoundTrip(t *testing.T) {
	app, err := NewTraceApp("rt", sampleSegments())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, app); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTraceCSV("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TotalInstr() != app.TotalInstr() {
		t.Fatalf("total %v, want %v", loaded.TotalInstr(), app.TotalInstr())
	}
	a, b := app.segments, loaded.segments
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("segment %d: %+v != %+v", i, a[i], b[i])
		}
	}
}

func TestLoadTraceCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"header only", "instr,base_cpi,mpki,apki,mem_latency_ns,activity\n"},
		{"wrong header", "a,b,c,d,e,f\n1,2,3,4,5,6\n"},
		{"short header", "instr,base_cpi\n1,2\n"},
		{"non-numeric", "instr,base_cpi,mpki,apki,mem_latency_ns,activity\nx,0.7,2,100,80,1\n"},
		{"invalid segment", "instr,base_cpi,mpki,apki,mem_latency_ns,activity\n0,0.7,2,100,80,1\n"},
	}
	for _, c := range cases {
		if _, err := LoadTraceCSV("x", strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
