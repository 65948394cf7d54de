package experiment

import (
	"bytes"
	"testing"

	"fedpower/internal/trace"
)

func TestRecordPolicyEpisode(t *testing.T) {
	o := smallOptions()
	var buf bytes.Buffer
	rec := trace.NewCSVRecorder(&buf)
	spec := EvalApps()[6] // ocean: completes quickly at high levels
	steps, err := RecordPolicyEpisode(o, levelPolicy(14), spec, rec)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := trace.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != steps {
		t.Fatalf("recorded %d entries for %d steps", len(entries), steps)
	}
	if steps == 0 {
		t.Fatal("no steps recorded")
	}
	// The trace is internally consistent: monotone time and step, the
	// fixed level everywhere, app name correct.
	for i, e := range entries {
		if e.Step != i+1 {
			t.Fatalf("entry %d has step %d", i, e.Step)
		}
		if e.App != "ocean" {
			t.Fatalf("entry %d app %q", i, e.App)
		}
		if e.Level != 14 {
			t.Fatalf("entry %d level %d, want 14", i, e.Level)
		}
		if i > 0 && e.TimeS <= entries[i-1].TimeS {
			t.Fatalf("time not monotone at entry %d", i)
		}
	}
	// ocean at f_max: ~27 s of simulated execution at 0.5 s intervals.
	if steps < 40 || steps > 70 {
		t.Fatalf("ocean completed in %d steps, want ~54", steps)
	}
}

func TestRecordEpisodeTrainsAndRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	o := smallOptions()
	o.Rounds = 15
	var buf bytes.Buffer
	rec := trace.NewJSONLRecorder(&buf)
	steps, err := RecordEpisode(o, "radix", rec)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != steps || steps == 0 {
		t.Fatalf("%d entries for %d steps", len(entries), steps)
	}
	for i, e := range entries {
		if e.PowerW <= 0 {
			t.Fatalf("entry %d records %v W", i, e.PowerW)
		}
	}
}

func TestRecordEpisodeUnknownApp(t *testing.T) {
	o := smallOptions()
	var buf bytes.Buffer
	if _, err := RecordEpisode(o, "doom", trace.NewCSVRecorder(&buf)); err == nil {
		t.Fatal("unknown app accepted")
	}
}
