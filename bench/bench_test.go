package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// smokeSizes are op counts small enough for every workload, untraced and
// traced, to run inside the ordinary test suite.
func smokeSizes() sizes {
	return sizes{
		Reps: 1, DeviceReps: 1, LatReps: 1, SetupReps: 2,
		WarmSteps: 500, AgedSteps: 1_000, TrainSteps: 400, AgedWindow: 300, GreedySteps: 2_000, TraceSteps: 500,
		Fig3Rounds: 3, Fig3Steps: 20, Fig3Serial: 2, Fig3Parallel: 2,
		WarmRounds: 3, FlatRounds: 120, TreeRounds: 20, TraceRounds: 20, CodecRounds: 10,
		ProbeReps: 1, ProbeNs: 100_000,
	}
}

// TestSmokeAllWorkloads runs every workload at tiny sizes: all output checks
// pass, every end-to-end metric is reported and non-zero, and a traced run
// reports every per-layer metric it owns, a layer table that sums to the
// traced wall-clock, and a span file.
func TestSmokeAllWorkloads(t *testing.T) {
	out := t.TempDir()
	checksums := map[string]string{}
	for _, w := range workloads {
		res := runWorkload(w, 3, false, out, smokeSizes())
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", w.Name, res.Correct, res.Attempted, res.Failed, res.Failures)
		}
		for _, d := range endToEnd {
			if m, ok := res.Metrics[d.Name]; !ok || !(m.Value > 0) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v (reported: %v)", w.Name, d.Name, m, ok)
			}
		}
		checksums[w.Name] = res.Checksum

		traced := runWorkload(w, 3, true, out, smokeSizes())
		if !traced.Correct {
			t.Errorf("%s traced: failed=%d: %v", w.Name, traced.Failed, traced.Failures)
		}
		if r := traced.Metrics["bench.layer_sum_ratio"].Value; math.Abs(r-1) > 0.05 {
			t.Errorf("%s traced: layer rows sum to %.3f of the wall-clock, want within 5 %%", w.Name, r)
		}
		if r := traced.Metrics["bench.trace_overhead_ratio"].Value; !(r > 0) {
			t.Errorf("%s traced: trace_overhead_ratio = %v", w.Name, r)
		}
		if len(traced.Layers) == 0 || traced.WallNs <= 0 {
			t.Errorf("%s traced: no layer table", w.Name)
		}
		if _, err := os.Stat(filepath.Join(out, w.Name+".trace.json")); err != nil {
			t.Errorf("%s traced: %v", w.Name, err)
		}
		for name := range traced.Metrics {
			unitOf(name) // panics on a metric the tables do not know
		}
	}
	if checksums["fleet_flat"] == "" || checksums["fleet_flat"] != checksums["fleet_tree"] {
		t.Errorf("flat and tree fleets disagree after the warm-up: %q vs %q", checksums["fleet_flat"], checksums["fleet_tree"])
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles([...], n=4) of Python gives these.
	for _, tc := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{in: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, q1: 2.75, m: 5.5, q3: 8.25},
		{in: []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, q1: 2.75, m: 5.5, q3: 8.25},
		{in: []float64{1, 2, 3, 4, 5}, q1: 1.5, m: 3, q3: 4.5},
		{in: []float64{2, 4}, q1: 1.5, m: 3, q3: 4.5},
		{in: []float64{7}, q1: 7, m: 7, q3: 7},
	} {
		in := append([]float64(nil), tc.in...)
		q1, m, q3 := quartiles(in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(m-tc.m) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
		if !reflect.DeepEqual(in, tc.in) {
			t.Errorf("quartiles reordered its input %v", tc.in)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := make([]uint32, 1000)
	for i := range s {
		s[i] = uint32(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]uint32{42}, 99.9); got != 42 {
		t.Errorf("percentile of one sample = %v", got)
	}
}

func TestTwoPoint(t *testing.T) {
	fixed, per := twoPoint(2, 190, 16, 470)
	if math.Abs(per-20) > 1e-12 || math.Abs(fixed-150) > 1e-12 {
		t.Errorf("twoPoint = %v + %v·x, want 150 + 20·x", fixed, per)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: 0, parent: -1, start: 0, end: 100},   // 0: root with adjacent children
		{name: 1, parent: 0, start: 0, end: 30},     // 1
		{name: 2, parent: 0, start: 30, end: 70},    // 2: has a nested child
		{name: 3, parent: 2, start: 40, end: 50},    // 3
		{name: 0, parent: -1, start: 100, end: 200}, // 4: root with overlapping children
		{name: 1, parent: 4, start: 110, end: 150},  // 5
		{name: 1, parent: 4, start: 130, end: 180},  // 6: overlaps 5, counted once
		{name: 1, parent: 4, start: 190, end: 250},  // 7: clipped to the parent
	}
	want := []int64{30, 30, 30, 10, 20, 40, 50, 60}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	tr := &tracer{names: []string{"root", "child", "mid", "leaf"}, spans: spans[:4]}
	rows := tr.layerTable(100)
	sum := int64(0)
	for _, r := range rows {
		sum += r.SelfNs
	}
	if sum != 100 {
		t.Errorf("layer table of a tiled op sums to %d, want its wall-clock 100", sum)
	}
	if r := rowByName(rows, "mid"); r.Count != 1 || r.SelfNs != 30 || math.Abs(r.Share-0.3) > 1e-12 {
		t.Errorf("row mid = %+v", r)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS []float64, rootBytes float64) string {
		path := filepath.Join(dir, name)
		for i, v := range opsPerS {
			doc := document{Env: environment{GoVersion: "go-test", Seed: int64(i)}, Workloads: []*result{{
				Workload: "fleet_flat", Correct: true, Attempted: 1,
				Metrics: map[string]metric{
					"ops_per_s":                {Value: v, Unit: "1/s"},
					"op_p50_us":                {Value: 1e6 / v, Unit: "us"},
					"rss_mb":                   {Value: 10, Unit: "MB"},
					"setup_s":                  {Value: 0.03, Unit: "s"},
					"fed.root_bytes_per_round": {Value: rootBytes, Unit: "B"},
				}}}}
			if err := appendDocument(path, doc); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", []float64{2000, 2010, 1990, 2005, 1995}, 88224)
	same := write("b.jsonl", []float64{1980, 2000, 2020, 1990, 2010}, 88224)
	slow := write("c.jsonl", []float64{1500, 1510, 1490, 1505, 1495}, 88224)
	wide := write("d.jsonl", []float64{2000, 2500, 1700, 2400, 1500}, 88224)
	moved := write("e.jsonl", []float64{2000, 2010, 1990, 2005, 1995}, 88230)

	var sb strings.Builder
	if code := compareFiles(&sb, base, same); code != 0 {
		t.Errorf("two sets of one commit: exit %d\n%s", code, sb.String())
	}
	for name, path := range map[string]string{"25 % slower": slow, "spread wider than the bound": wide, "byte count moved": moved} {
		sb.Reset()
		if code := compareFiles(&sb, base, path); code != 1 || !strings.Contains(sb.String(), "<--") {
			t.Errorf("%s: exit %d, want 1 and a mark\n%s", name, code, sb.String())
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "bare.jsonl"), []byte(`{"workloads":[]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := compareFiles(&sb, base, filepath.Join(dir, "bare.jsonl")); code != 2 {
		t.Errorf("a run without an environment header was accepted: exit %d", code)
	}
}

func TestSummaryLine(t *testing.T) {
	res := &result{Workload: "device_greedy", Correct: true, Attempted: 10, Metrics: map[string]metric{}}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metric{Value: 1.5, Unit: d.Unit}
	}
	res.Metrics["sim.step_ns"] = metric{Value: 120, Unit: "ns"}
	for _, trace := range []bool{false, true} {
		line, ok := summaryLine([]*result{res}, trace)
		var got struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &got); err != nil || !ok || !got.Correct || got.Attempted != 10 {
			t.Fatalf("trace=%v: %v %v %s", trace, err, ok, line)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if len(got.Metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics, want exactly the %d of the table", trace, len(got.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := got.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s = %+v (present: %v)", trace, d.Name, m, ok)
			}
		}
	}
}

func TestTraceFlagForms(t *testing.T) {
	// "--trace 1" (value apart), "-trace" and "-trace=0" all have to parse;
	// a wrong workload name is how each is made to stop before running.
	for _, args := range [][]string{
		{"--workload", "none", "--seed", "5", "--seconds", "1", "--trace", "1"},
		{"--trace", "0", "--workload", "none"},
		{"-workload", "none", "-trace"},
		{"-workload=none", "-trace=0"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (unknown workload, flags parsed)", args, code)
		}
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json, which the benchmark's
// caller reads, equal to the tables the program prints from.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := got
	want.Workloads, want.EndToEnd, want.PerLayer = nil, endToEnd, perLayer
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, workloadDef{Name: w.Name, Why: w.Why})
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters, want one line of at most 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(got, want) {
		expected, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go and main.go; from the tables:\n%s", expected)
	}
	if len(got.EndToEnd)+len(got.PerLayer) == 0 || got.RunSeconds < 1 || got.RunSeconds > 60 || len(got.Paths) != 1 || got.Paths[0] != "bench" {
		t.Errorf("manifest header: run_seconds %d paths %v", got.RunSeconds, got.Paths)
	}
	for _, d := range got.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", d.Name, d.Bound)
		}
	}
}
