// Package report renders experiment results as aligned text tables and
// ASCII bar charts, the output format of the figure-regeneration
// harness (cmd/figures and the benchmark suite).
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table renders rows of cells with a header, aligning columns.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends one row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
		fmt.Fprintf(w, "%s\n", strings.Repeat("=", len(t.Title)))
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := widths[i] - len(c)
			if i == 0 {
				b.WriteString(c + strings.Repeat(" ", pad))
			} else {
				b.WriteString(strings.Repeat(" ", pad) + c)
			}
		}
		fmt.Fprintln(w, b.String())
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	fmt.Fprintln(w)
}

// Bar renders a horizontal ASCII bar of val against max using width
// characters.
func Bar(val, max float64, width int) string {
	if max <= 0 || val < 0 {
		return ""
	}
	n := int(val / max * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// Pct formats a fraction as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// PM formats a 95% CI half-width as a ± annotation ("±0.03").
func PM(half float64) string { return fmt.Sprintf("±%.2f", half) }

// PMPct formats a fractional 95% CI half-width as a ± percentage
// ("±1.5%").
func PMPct(half float64) string { return fmt.Sprintf("±%.1f%%", 100*half) }

// F2 formats a float with two decimals.
func F2(v float64) string { return fmt.Sprintf("%.2f", v) }

// F1 formats a float with one decimal.
func F1(v float64) string { return fmt.Sprintf("%.1f", v) }
