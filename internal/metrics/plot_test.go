package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestPlotRender(t *testing.T) {
	a := &Series{Name: "coflows", XLabel: "rate"}
	b := &Series{Name: "flows"}
	for i := 0; i <= 10; i++ {
		x := float64(i) / 10
		a.Add(x, 100*(1-math.Pow(1-x, 8)))
		b.Add(x, 100*x)
	}
	p := &Plot{Title: "Figure 1(a)"}
	out, err := p.Render(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 1(a)", "* coflows", "o flows", "(rate)", "+--"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	// The first line of the grid carries the y max (100).
	if !strings.Contains(out, "100 |") {
		t.Errorf("plot missing y-axis max:\n%s", out)
	}
}

func TestPlotRejectsEmpty(t *testing.T) {
	p := &Plot{}
	if _, err := p.Render(); err == nil {
		t.Error("no series accepted")
	}
	s := &Series{Name: "nan"}
	s.Add(math.NaN(), math.NaN())
	if _, err := p.Render(s); err == nil {
		t.Error("all-NaN series accepted")
	}
}

func TestPlotConstantSeries(t *testing.T) {
	s := &Series{Name: "flat"}
	s.Add(1, 5)
	s.Add(2, 5)
	p := &Plot{}
	if _, err := p.Render(s); err != nil {
		t.Fatalf("constant series: %v", err)
	}
}

func TestPlotCDF(t *testing.T) {
	curves := map[string]*CDF{
		"fat-tree":    NewCDF([]float64{1, 1.2, 2, 5, 40}),
		"ShareBackup": NewCDF([]float64{1, 1, 1, 1, 1}),
	}
	out, err := PlotCDF("Figure 1(c)", 10, curves)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fat-tree") || !strings.Contains(out, "ShareBackup") {
		t.Errorf("CDF plot missing curves:\n%s", out)
	}
	if _, err := PlotCDF("empty", 5, nil); err == nil {
		t.Error("empty curve map accepted")
	}
	if _, err := PlotCDF("empty", 5, map[string]*CDF{"e": NewCDF(nil)}); err == nil {
		t.Error("empty CDFs accepted")
	}
}
