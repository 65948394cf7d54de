package experiment

import (
	"fmt"
	"strings"

	"fedpower/internal/stats"
)

// Rendering helpers for the CLI and the examples: plain-text tables and
// Unicode sparklines, so every figure and table of the paper has a readable
// terminal representation without plotting dependencies.

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a fixed-width Unicode sparkline over the
// given value range. Values are bucketed by averaging when the series is
// longer than width. An empty series renders as an empty string.
func Sparkline(values []float64, width int, lo, hi float64) string {
	if len(values) == 0 || width <= 0 {
		return ""
	}
	if hi <= lo {
		hi = lo + 1
	}
	if len(values) < width {
		width = len(values)
	}
	var b strings.Builder
	for i := 0; i < width; i++ {
		start := i * len(values) / width
		end := (i + 1) * len(values) / width
		if end <= start {
			end = start + 1
		}
		v := stats.Mean(values[start:end])
		frac := (v - lo) / (hi - lo)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		idx := int(frac * float64(len(sparkLevels)-1))
		b.WriteRune(sparkLevels[idx])
	}
	return b.String()
}

// Table renders rows as a column-aligned plain-text table with a header
// separator.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// RewardSeries extracts the reward column from round evaluations.
func RewardSeries(evals []RoundEval) []float64 {
	out := make([]float64, len(evals))
	for i, e := range evals {
		out[i] = e.Reward
	}
	return out
}
