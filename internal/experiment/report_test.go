package experiment

import (
	"strings"
	"testing"
	"unicode/utf8"
)

func TestSparklineBasics(t *testing.T) {
	if got := Sparkline(nil, 10, 0, 1); got != "" {
		t.Errorf("empty series rendered %q", got)
	}
	if got := Sparkline([]float64{1}, 0, 0, 1); got != "" {
		t.Errorf("zero width rendered %q", got)
	}
	got := Sparkline([]float64{0, 0.5, 1}, 3, 0, 1)
	if utf8.RuneCountInString(got) != 3 {
		t.Fatalf("width %d, want 3: %q", utf8.RuneCountInString(got), got)
	}
	runes := []rune(got)
	if runes[0] != '▁' {
		t.Errorf("minimum rendered %q, want ▁", runes[0])
	}
	if runes[2] != '█' {
		t.Errorf("maximum rendered %q, want █", runes[2])
	}
}

func TestSparklineClampsOutOfRange(t *testing.T) {
	got := []rune(Sparkline([]float64{-10, 10}, 2, 0, 1))
	if got[0] != '▁' || got[1] != '█' {
		t.Fatalf("out-of-range values not clamped: %q", string(got))
	}
}

func TestSparklineBucketsLongSeries(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = float64(i) / 99
	}
	got := Sparkline(series, 10, 0, 1)
	if utf8.RuneCountInString(got) != 10 {
		t.Fatalf("bucketed width %d, want 10", utf8.RuneCountInString(got))
	}
	runes := []rune(got)
	// Monotone series must render monotone glyphs.
	for i := 1; i < len(runes); i++ {
		if runes[i] < runes[i-1] {
			t.Fatalf("non-monotone rendering of a monotone series: %q", got)
		}
	}
}

func TestSparklineShortSeriesShrinks(t *testing.T) {
	got := Sparkline([]float64{0, 1}, 10, 0, 1)
	if utf8.RuneCountInString(got) != 2 {
		t.Fatalf("2-point series rendered %d glyphs", utf8.RuneCountInString(got))
	}
}

func TestSparklineDegenerateRange(t *testing.T) {
	// hi <= lo must not divide by zero.
	got := Sparkline([]float64{5, 5}, 2, 5, 5)
	if utf8.RuneCountInString(got) != 2 {
		t.Fatalf("degenerate range rendered %q", got)
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"App", "Time"}, [][]string{
		{"fft", "26.9"},
		{"water-ns", "25.7"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines, want header + separator + 2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("separator line missing: %q", lines[1])
	}
	// The Time column starts at the same offset in every row.
	idx := strings.Index(lines[0], "Time")
	for _, l := range lines[2:] {
		if len(l) < idx {
			t.Fatalf("row shorter than header: %q", l)
		}
	}
	if strings.Index(lines[2], "26.9") != strings.Index(lines[3], "25.7") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestSeriesExtractors(t *testing.T) {
	evals := []RoundEval{
		{Reward: 0.1, MeanNormFreq: 0.5},
		{Reward: 0.2, MeanNormFreq: 0.6},
	}
	if r := RewardSeries(evals); r[0] != 0.1 || r[1] != 0.2 {
		t.Errorf("RewardSeries = %v", r)
	}
}
