package fedpower_test

// Tests for the public-facade surface not already covered by the core API
// tests: governors, model encode/decode, weighted federation, the central
// trainer, traces and sweeps.

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fedpower"
)

func TestStandardGovernorsThroughFacade(t *testing.T) {
	table := fedpower.JetsonNanoTable()
	govs := fedpower.StandardGovernors(table.Len(), 0.6)
	if len(govs) != 4 {
		t.Fatalf("%d governors, want 4", len(govs))
	}
	perf := fedpower.NewPerformanceGovernor(table.Len())
	if perf.Action(fedpower.Observation{}) != table.Len()-1 {
		t.Error("performance governor not pinned at f_max")
	}
	if fedpower.NewPowersaveGovernor().Action(fedpower.Observation{Level: 9}) != 0 {
		t.Error("powersave governor not pinned at the bottom")
	}
	if fedpower.NewUserspaceGovernor(5).Action(fedpower.Observation{}) != 5 {
		t.Error("userspace governor not pinned")
	}
	cap_ := fedpower.NewPowerCapGovernor(table.Len(), 0.6, 0.1)
	if got := cap_.Action(fedpower.Observation{Level: 10, PowerW: 0.9}); got != 9 {
		t.Errorf("power capper stepped to %d, want 9", got)
	}
}

func TestEncodeDecodeModelThroughFacade(t *testing.T) {
	params := []float64{0.25, -1.5, 3.0}
	buf := fedpower.EncodeModel(params)
	if len(buf) != 12 {
		t.Fatalf("encoded %d bytes, want 12", len(buf))
	}
	dst := make([]float64, 3)
	if err := fedpower.DecodeModel(dst, buf); err != nil {
		t.Fatal(err)
	}
	for i := range params {
		if dst[i] != params[i] { // exactly representable in float32
			t.Fatalf("param %d: %v -> %v", i, params[i], dst[i])
		}
	}
	if err := fedpower.DecodeModel(dst, buf[:8]); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestCentralTrainerThroughFacade(t *testing.T) {
	table := fedpower.JetsonNanoTable()
	tr := fedpower.NewCentralTrainer(fedpower.DefaultControllerParams(table.Len()), rand.New(rand.NewSource(1)))
	if tr.RawBytesReceived() != 0 {
		t.Fatal("fresh trainer has received bytes")
	}
	if len(tr.Policy()) != 687 {
		t.Fatalf("central policy has %d params", len(tr.Policy()))
	}
}

func TestTraceRecordersThroughFacade(t *testing.T) {
	entry := fedpower.TraceEntry{Step: 1, App: "fft", Level: 8, FreqMHz: 921.6, PowerW: 0.55, Reward: 0.62}

	var csvBuf bytes.Buffer
	rec := fedpower.NewCSVTraceRecorder(&csvBuf)
	if err := rec.Record(entry); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	entries, err := fedpower.ReadCSVTrace(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].App != "fft" {
		t.Fatalf("csv round trip: %+v", entries)
	}

	var jsonBuf bytes.Buffer
	jrec := fedpower.NewJSONLTraceRecorder(&jsonBuf)
	if err := jrec.Record(entry); err != nil {
		t.Fatal(err)
	}
	if err := jrec.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonBuf.String(), `"app":"fft"`) {
		t.Fatalf("jsonl output %q", jsonBuf.String())
	}
	jentries, err := fedpower.ReadJSONLTrace(&jsonBuf)
	if err != nil || len(jentries) != 1 {
		t.Fatalf("jsonl round trip: %v, %v", jentries, err)
	}
}

func TestSweepFactoriesThroughFacade(t *testing.T) {
	if len(fedpower.LearningRateSweep()) == 0 ||
		len(fedpower.TauDecaySweep()) == 0 ||
		len(fedpower.BatchSizeSweep()) == 0 ||
		len(fedpower.HiddenWidthSweep()) == 0 {
		t.Fatal("a default sweep is empty")
	}
	o := fedpower.DefaultOptions()
	pt := fedpower.LearningRateSweep(0.01)[0]
	pt.Mutate(&o)
	if o.Core.LearningRate != 0.01 {
		t.Fatal("sweep mutation did not apply")
	}
}

func TestThermalModelThroughFacade(t *testing.T) {
	m := fedpower.DefaultThermalModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		m.Advance(0.6, 100) // 12 thermal time constants in total
	}
	if math.Abs(m.TempC()-m.SteadyStateC(0.6)) > 0.1 {
		t.Fatalf("temperature %v after saturation, want %v", m.TempC(), m.SteadyStateC(0.6))
	}
	dev := fedpower.NewDevice(fedpower.JetsonNanoTable(), fedpower.DefaultPowerModel(), rand.New(rand.NewSource(1)))
	dev.Thermal = fedpower.DefaultThermalModel()
	spec, err := fedpower.AppByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	dev.Load(fedpower.NewApp(spec))
	dev.SetLevel(10)
	obs := dev.Step(0.5)
	if obs.TempC <= 25 {
		t.Fatalf("thermal observation %v, want above ambient", obs.TempC)
	}
}

func TestMultiCoreThroughFacade(t *testing.T) {
	table := fedpower.JetsonNanoTable()
	clu := fedpower.NewMultiCoreDevice(table, fedpower.DefaultPowerModel(), 4, rand.New(rand.NewSource(1)))
	spec, err := fedpower.AppByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		clu.LoadCore(i, fedpower.NewApp(spec))
	}
	clu.SetLevel(14)
	obs := clu.Step(0.5)
	if obs.Instr <= 0 || obs.PowerW <= 0 {
		t.Fatalf("cluster step degenerate: %+v", obs)
	}
	if clu.AllDone() {
		t.Fatal("cluster done after one interval")
	}
}
