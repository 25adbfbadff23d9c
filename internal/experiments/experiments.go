// Package experiments implements every experiment in docs/DESIGN.md's
// per-experiment index — one function per table/figure/quantitative claim
// of the paper — returning structured results that Paper collects for
// cmd/treads-experiments and bench_test.go regenerates.
//
// Every experiment is deterministic given its seed.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable result table: the shape the paper's numbers are
// reported in.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Fprint renders the table to w in aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
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
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// FprintCSV renders the table as RFC-4180-ish CSV (quotes around cells
// containing commas or quotes), for piping experiment output into plotting
// tools. Notes are omitted.
func (t *Table) FprintCSV(w io.Writer) {
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				fmt.Fprintf(w, `"%s"`, strings.ReplaceAll(c, `"`, `""`))
			} else {
				fmt.Fprint(w, c)
			}
		}
		fmt.Fprintln(w)
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
}

// cell formats a float with sensible precision.
func cell(f float64) string { return fmt.Sprintf("%.4g", f) }

// cellPct formats a fraction as a percentage.
func cellPct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }
