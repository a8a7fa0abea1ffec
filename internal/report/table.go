// Package report renders experiment output: aligned text tables (the
// paper's Tables 1–5) and their CSV variant, and SVG line plots for the
// hit-rate and occupancy figures.
package report

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"webcachesim/internal/doctype"
)

// Table is a rectangular grid of cells with a header row.
type Table struct {
	// Title is printed above the table when non-empty.
	Title   string
	header  []string
	rows    [][]string
	numCols int
}

// NewTable creates a table with the given column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header, numCols: len(header)}
}

// NewClassTable creates a table with a label column and one column per
// document class, in the paper's order; ClassRow fills its rows.
func NewClassTable(title string) *Table {
	header := []string{""}
	for _, cl := range doctype.Classes {
		header = append(header, cl.String())
	}
	return NewTable(title, header...)
}

// ClassRow appends the row every per-type table is made of: a label, then
// one AddRowf-formatted cell per document class.
func ClassRow[V any](t *Table, label string, cell func(doctype.Class) V) {
	row := []any{label}
	for _, cl := range doctype.Classes {
		row = append(row, cell(cl))
	}
	t.AddRowf(row...)
}

// AddRow appends a row; missing cells render empty, extra cells widen the
// table.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > t.numCols {
		t.numCols = len(cells)
	}
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row of formatted cells: each argument is rendered with
// %v unless it is a float64, which is rendered with the table's default
// precision.
func (t *Table) AddRowf(cells ...any) {
	out := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			out[i] = FormatFloat(v)
		case string:
			out[i] = v
		default:
			out[i] = fmt.Sprintf("%v", v)
		}
	}
	t.AddRow(out...)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// FormatFloat renders a float compactly: 2 decimals for magnitudes ≥ 1,
// up to 4 significant decimals below 1, trimming trailing zeros.
func FormatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	var s string
	switch {
	case av == 0:
		return "0"
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		s = fmt.Sprintf("%.2f", v)
	default:
		s = fmt.Sprintf("%.4f", v)
	}
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

func (t *Table) widths() []int {
	w := make([]int, t.numCols)
	measure := func(cells []string) {
		for i, c := range cells {
			w[i] = max(w[i], utf8.RuneCountInString(c))
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	return w
}

// Text renders the table as aligned plain text: the first column is
// left-aligned (row labels), the rest right-aligned (numbers). Cells are
// padded by runes, so a label such as "image α" aligns with ASCII ones.
func (t *Table) Text() string {
	w := t.widths()
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i := 0; i < t.numCols; i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			pad := strings.Repeat(" ", w[i]-utf8.RuneCountInString(cell))
			if i == 0 {
				sb.WriteString(cell)
				sb.WriteString(pad)
			} else {
				sb.WriteString(pad)
				sb.WriteString(cell)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	rule := 2 * max(t.numCols-1, 0) // the two-space gaps between cells
	for _, width := range w {
		rule += width
	}
	sb.WriteString(strings.Repeat("-", rule))
	sb.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i := 0; i < t.numCols; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			sb.WriteString(cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}
