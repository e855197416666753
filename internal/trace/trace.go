// Package trace renders experiment results as paper-style tables and
// ASCII figures. Every experiment in internal/exper produces a Report; the
// boltbench command and the benchmark harness print them.
package trace

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; cells beyond the header count are kept as-is.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(widths))
		for i := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(widths))
	for i, wd := range widths {
		sep[i] = strings.Repeat("-", wd)
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Series is one named line of a figure: x/y points.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a collection of series, rendered as a table of points plus an
// ASCII sparkline per series — enough to read the shape the paper's plot
// shows.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// NewFigure creates an empty figure.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries appends a named series.
func (f *Figure) AddSeries(name string, x, y []float64) {
	f.Series = append(f.Series, Series{Name: name, X: x, Y: y})
}

// Render writes the figure to w.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", f.Title)
	fmt.Fprintf(w, "  x=%s, y=%s\n", f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "  %-24s %s\n", s.Name, Sparkline(s.Y))
		for i := range s.X {
			fmt.Fprintf(w, "    %10.4g  %10.4g\n", s.X[i], s.Y[i])
		}
	}
}

// String renders the figure to a string.
func (f *Figure) String() string {
	var b strings.Builder
	f.Render(&b)
	return b.String()
}

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a unicode sparkline, normalising to the
// series' own min/max. Empty input yields an empty string.
func Sparkline(ys []float64) string {
	if len(ys) == 0 {
		return ""
	}
	lo, hi := ys[0], ys[0]
	for _, y := range ys {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	var b strings.Builder
	for _, y := range ys {
		idx := 0
		if hi > lo {
			idx = int((y - lo) / (hi - lo) * float64(len(sparkLevels)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkLevels) {
			idx = len(sparkLevels) - 1
		}
		b.WriteRune(sparkLevels[idx])
	}
	return b.String()
}

// Heatmap renders a 2D grid of values (rows × cols) as shaded cells, used
// for the Fig. 2 probability maps and the Fig. 12c occupancy plot.
type Heatmap struct {
	Title      string
	RowLabel   string
	ColLabel   string
	Rows, Cols int
	Cells      []float64 // row-major, any non-negative scale
}

// NewHeatmap allocates a rows×cols heatmap.
func NewHeatmap(title, rowLabel, colLabel string, rows, cols int) *Heatmap {
	return &Heatmap{
		Title: title, RowLabel: rowLabel, ColLabel: colLabel,
		Rows: rows, Cols: cols, Cells: make([]float64, rows*cols),
	}
}

// Set assigns cell (r, c).
func (h *Heatmap) Set(r, c int, v float64) { h.Cells[r*h.Cols+c] = v }

// At returns cell (r, c).
func (h *Heatmap) At(r, c int) float64 { return h.Cells[r*h.Cols+c] }

var heatLevels = []rune(" .:-=+*#%@")

// Render writes the heatmap to w, one shaded character per cell.
func (h *Heatmap) Render(w io.Writer) {
	lo, hi := h.Cells[0], h.Cells[0]
	for _, v := range h.Cells {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	fmt.Fprintf(w, "%s  (rows=%s, cols=%s; ' '=%.2g '@'=%.2g)\n",
		h.Title, h.RowLabel, h.ColLabel, lo, hi)
	for r := 0; r < h.Rows; r++ {
		var b strings.Builder
		for c := 0; c < h.Cols; c++ {
			v := h.At(r, c)
			idx := 0
			if hi > lo {
				idx = int((v - lo) / (hi - lo) * float64(len(heatLevels)-1))
			}
			if idx < 0 {
				idx = 0
			}
			if idx >= len(heatLevels) {
				idx = len(heatLevels) - 1
			}
			b.WriteRune(heatLevels[idx])
		}
		fmt.Fprintf(w, "  |%s|\n", b.String())
	}
}

// String renders the heatmap to a string.
func (h *Heatmap) String() string {
	var b strings.Builder
	h.Render(&b)
	return b.String()
}
