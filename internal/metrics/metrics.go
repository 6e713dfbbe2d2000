// Package metrics provides the small statistics and rendering toolkit the
// experiment harness uses: empirical CDFs, percentiles, and fixed-width
// tables/series matching the rows the paper's figures report.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds basic order statistics of a sample.
type Summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
}

// Summarize computes order statistics of xs. It returns a zero Summary for
// an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Mean:   sum / float64(len(s)),
		Median: quantileSorted(s, 0.5),
		P90:    quantileSorted(s, 0.9),
		P99:    quantileSorted(s, 0.99),
	}
}

// quantileSorted returns the q-quantile (0 <= q <= 1) of the sorted,
// non-empty sample s, interpolating linearly between order statistics.
func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	xs []float64 // sorted
}

// NewCDF builds an empirical CDF over the sample.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{xs: s}
}

// N returns the sample size.
func (c *CDF) N() int { return len(c.xs) }

// Inverse returns the smallest sample value v with P[X <= v] >= p.
func (c *CDF) Inverse(p float64) float64 {
	if len(c.xs) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return c.xs[0]
	}
	idx := int(math.Ceil(p*float64(len(c.xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.xs) {
		idx = len(c.xs) - 1
	}
	return c.xs[idx]
}

// Points returns up to n evenly spaced (x, P[X<=x]) points suitable for
// plotting the CDF curve.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.xs) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.xs) {
		n = len(c.xs)
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := (i + 1) * len(c.xs) / n
		if idx > len(c.xs) {
			idx = len(c.xs)
		}
		x := c.xs[idx-1]
		out = append(out, [2]float64{x, float64(idx) / float64(len(c.xs))})
	}
	return out
}

// Series is a named sequence of (x, y) points — one curve of a figure.
type Series struct {
	Name   string
	X      []float64
	Y      []float64
	XLabel string
	YLabel string
}

// Add appends a point to the series.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// Table renders aligned columns — the textual stand-in for the paper's
// tables and figure data.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells, formatting each with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: integers without decimals, small
// magnitudes with enough precision to be meaningful.
func FormatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 0):
		return "Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if total > 2 {
		b.WriteString(strings.Repeat("-", total-2))
		b.WriteByte('\n')
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// RenderSeries renders one or more series sharing an x-axis as a table with
// one column per series. All series must have identical X values.
func RenderSeries(title string, series ...*Series) (string, error) {
	if len(series) == 0 {
		return "", fmt.Errorf("metrics: RenderSeries: no series")
	}
	n := series[0].Len()
	for _, s := range series[1:] {
		if s.Len() != n {
			return "", fmt.Errorf("metrics: RenderSeries: series %q has %d points, want %d", s.Name, s.Len(), n)
		}
		for i := range s.X {
			if s.X[i] != series[0].X[i] {
				return "", fmt.Errorf("metrics: RenderSeries: series %q x-axis mismatch at %d", s.Name, i)
			}
		}
	}
	tbl := &Table{Title: title}
	xl := series[0].XLabel
	if xl == "" {
		xl = "x"
	}
	tbl.Headers = append(tbl.Headers, xl)
	for _, s := range series {
		tbl.Headers = append(tbl.Headers, s.Name)
	}
	for i := 0; i < n; i++ {
		cells := make([]interface{}, 0, len(series)+1)
		cells = append(cells, series[0].X[i])
		for _, s := range series {
			cells = append(cells, s.Y[i])
		}
		tbl.AddRow(cells...)
	}
	return tbl.String(), nil
}

// Ratio returns a/b, or NaN when b is zero — the safe division used for
// slowdowns and relative costs.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
