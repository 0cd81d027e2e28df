// Package experiments implements the synthetic evaluation suite
// declared in DESIGN.md (E1-E15): each experiment drives the platform
// with a generated workload and renders the table or data series the
// corresponding SIGCOMM'13-style evaluation would report. cmd/zbench
// is the CLI front end; bench_test.go wraps the same fixtures in
// testing.B harnesses.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's rendered result; experiments without a
// result type of their own also write it as their JSON result.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table in aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// f renders a float compactly.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
