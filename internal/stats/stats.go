// Package stats provides the aggregation and reporting layer for the
// experiment harness: summary statistics over repeated seeded trials,
// log-log power-law fits for scaling-exponent checks (the paper's claims
// are about exponents: n/k² vs n/k), and plain-text/CSV tables.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MinMax returns the extremes (0, 0 for empty input).
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return
}

// FitPowerLaw fits y = c·x^slope by least squares on (ln x, ln y) and
// returns the slope and c. Points with non-positive coordinates are
// skipped. With fewer than two usable points it returns (0, 0).
func FitPowerLaw(xs, ys []float64) (slope, c float64) {
	var lx, ly []float64
	for i := range xs {
		if i < len(ys) && xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	n := float64(len(lx))
	if n < 2 {
		return 0, 0
	}
	mx, my := Mean(lx), Mean(ly)
	var num, den float64
	for i := range lx {
		num += (lx[i] - mx) * (ly[i] - my)
		den += (lx[i] - mx) * (lx[i] - mx)
	}
	if den == 0 {
		return 0, 0
	}
	slope = num / den
	c = math.Exp(my - slope*mx)
	return
}

// Table is a titled grid of cells rendered as aligned text or CSV.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Columns) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a footnote line rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render returns the aligned plain-text form.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV returns the comma-separated form (cells with commas are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float compactly for table cells.
func F(x float64) string {
	a := math.Abs(x)
	switch {
	case a != 0 && (a < 0.01 || a >= 1e6):
		return fmt.Sprintf("%.2e", x)
	case a < 10:
		return fmt.Sprintf("%.2f", x)
	default:
		return fmt.Sprintf("%.1f", x)
	}
}

// I formats an int for table cells.
func I[T ~int | ~int64](x T) string { return fmt.Sprintf("%d", x) }
