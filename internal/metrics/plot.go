package metrics

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Plot renders one or more series as a 60 × 16 ASCII line chart on linear
// axes — the harness's stand-in for the paper's figures. Each series is
// drawn with its own glyph.
type Plot struct {
	Title string
}

var plotGlyphs = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// plottable reports whether a point has finite coordinates.
func plottable(x, y float64) bool {
	return !math.IsNaN(x) && !math.IsNaN(y) && !math.IsInf(x, 0) && !math.IsInf(y, 0)
}

// Render draws the series. All series may have different x values; the
// x-axis spans their union.
func (p *Plot) Render(series ...*Series) (string, error) {
	if len(series) == 0 {
		return "", fmt.Errorf("metrics: Plot: no series")
	}
	const width, height = 60, 16 // the plot area's columns and rows
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	total := 0
	for _, s := range series {
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if !plottable(x, y) {
				continue
			}
			total++
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	if total == 0 {
		return "", fmt.Errorf("metrics: Plot: no plottable points")
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		glyph := plotGlyphs[si%len(plotGlyphs)]
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if !plottable(x, y) {
				continue
			}
			col := int(math.Round((x - xmin) / (xmax - xmin) * float64(width-1)))
			row := height - 1 - int(math.Round((y-ymin)/(ymax-ymin)*float64(height-1)))
			if grid[row][col] == ' ' || grid[row][col] == glyph {
				grid[row][col] = glyph
			} else {
				grid[row][col] = '?' // overlapping series
			}
		}
	}

	var b strings.Builder
	if p.Title != "" {
		b.WriteString(p.Title)
		b.WriteByte('\n')
	}
	top, bottom := FormatFloat(ymax), FormatFloat(ymin)
	labelW := max(len(top), len(bottom))
	for r := 0; r < height; r++ {
		switch r {
		case 0:
			fmt.Fprintf(&b, "%*s |", labelW, top)
		case height - 1:
			fmt.Fprintf(&b, "%*s |", labelW, bottom)
		default:
			fmt.Fprintf(&b, "%*s |", labelW, "")
		}
		b.Write(grid[r])
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%*s +%s\n", labelW, "", strings.Repeat("-", width))
	xl := series[0].XLabel
	if xl == "" {
		xl = "x"
	}
	fmt.Fprintf(&b, "%*s  %s%*s%s  (%s)\n", labelW, "",
		FormatFloat(xmin), width-len(FormatFloat(xmin))-len(FormatFloat(xmax)), "", FormatFloat(xmax), xl)
	for si, s := range series {
		fmt.Fprintf(&b, "%*s  %c %s\n", labelW, "", plotGlyphs[si%len(plotGlyphs)], s.Name)
	}
	return b.String(), nil
}

// PlotCDF renders one or more CDFs as curves on a shared chart, sampling
// each at up to `points` positions. The title is printed as given.
func PlotCDF(title string, points int, curves map[string]*CDF) (string, error) {
	if len(curves) == 0 {
		return "", fmt.Errorf("metrics: PlotCDF: no curves")
	}
	var series []*Series
	names := make([]string, 0, len(curves))
	for name := range curves {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		c := curves[name]
		s := &Series{Name: name, XLabel: "value"}
		for _, pt := range c.Points(points) {
			s.Add(pt[0], 100*pt[1])
		}
		if s.Len() > 0 {
			series = append(series, s)
		}
	}
	if len(series) == 0 {
		return "", fmt.Errorf("metrics: PlotCDF: all curves empty")
	}
	p := &Plot{Title: title}
	return p.Render(series...)
}
