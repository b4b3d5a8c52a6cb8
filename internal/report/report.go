// Package report renders the reproduction's tables and figure data:
// aligned text tables for the paper's tabular figures, and CSV / PGM /
// ASCII quick-looks for the model-output plates of Fig. 9.
package report

import (
	"fmt"
	"math"
	"strings"

	"hyades/internal/gcm/field"
)

// Table is a simple aligned-column text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
	Note    string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row (cells beyond the header count are dropped).
func (t *Table) Add(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Addf appends a row built from format/value pairs.
func (t *Table) Addf(format string, args ...any) {
	t.Add(strings.Split(fmt.Sprintf(format, args...), "|")...)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, r := range t.rows {
		line(r)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// FieldCSV renders a 2-D field's interior as CSV (row 0 first).
func FieldCSV(f *field.F2) string {
	var b strings.Builder
	for j := 0; j < f.NY; j++ {
		for i := 0; i < f.NX; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%.6g", f.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FieldPGM renders a 2-D field as a binary-less (P2 ASCII) PGM image,
// auto-scaled, with row NY-1 at the top so north is up.
func FieldPGM(f *field.F2) string {
	lo, hi := fieldRange(f)
	var b strings.Builder
	fmt.Fprintf(&b, "P2\n%d %d\n255\n", f.NX, f.NY)
	for j := f.NY - 1; j >= 0; j-- {
		for i := 0; i < f.NX; i++ {
			v := 0
			if hi > lo {
				v = int(255 * (f.At(i, j) - lo) / (hi - lo))
			}
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FieldASCII renders a coarse quick-look of a 2-D field using a
// ten-level character ramp, north up.  Land/NaN cells print as '#'.
func FieldASCII(f *field.F2, cols int) string {
	if cols <= 0 || cols > f.NX {
		cols = f.NX
	}
	rows := f.NY * cols / f.NX / 2 // compensate terminal aspect
	if rows < 1 {
		rows = 1
	}
	ramp := []byte(" .:-=+*%@$")
	lo, hi := fieldRange(f)
	var b strings.Builder
	for r := rows - 1; r >= 0; r-- {
		for c := 0; c < cols; c++ {
			i := c * f.NX / cols
			j := r * f.NY / rows
			v := f.At(i, j)
			if math.IsNaN(v) {
				b.WriteByte('#')
				continue
			}
			idx := 0
			if hi > lo {
				idx = int(float64(len(ramp)-1) * (v - lo) / (hi - lo))
			}
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			b.WriteByte(ramp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fieldRange(f *field.F2) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for j := 0; j < f.NY; j++ {
		for i := 0; i < f.NX; i++ {
			v := f.At(i, j)
			if math.IsNaN(v) {
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if math.IsInf(lo, 1) {
		return 0, 0
	}
	return lo, hi
}

// Goodput returns delivered payload bytes as a percentage of wire
// bytes — the efficiency metric for fault-injection runs, where
// retransmissions and ACK traffic inflate the wire count.
func Goodput(payloadBytes, wireBytes int64) float64 {
	if wireBytes <= 0 {
		return 0
	}
	return 100 * float64(payloadBytes) / float64(wireBytes)
}

// Micros formats a time-like microsecond count compactly.
func Micros(us float64) string {
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.3gs", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.4gms", us/1e3)
	default:
		return fmt.Sprintf("%.3gus", us)
	}
}
