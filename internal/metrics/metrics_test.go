package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.Median != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Errorf("empty Summarize.N = %d", empty.N)
	}
}

// TestQuantile pins the interpolation between order statistics behind
// Summarize's median, p90 and p99.
func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.25, 3.25}, {-1, 1}, {2, 10},
	}
	for _, c := range cases {
		if got := quantileSorted(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if s := Summarize(xs); s.Median != 5.5 || math.Abs(s.P90-9.1) > 1e-9 || math.Abs(s.P99-9.91) > 1e-9 {
		t.Errorf("Summarize = %+v, want median 5.5, p90 9.1, p99 9.91", s)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Summarize sorted the caller's slice")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 4})
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 1}, {0.26, 2}, {0.5, 2}, {0.75, 2}, {0.76, 4}, {1, 4},
	}
	for _, tc := range cases {
		if got := c.Inverse(tc.p); got != tc.want {
			t.Errorf("Inverse(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if c.N() != 4 {
		t.Errorf("N = %d", c.N())
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if !math.IsNaN(c.Inverse(0.5)) {
		t.Error("empty CDF should return NaN")
	}
	if c.Points(5) != nil {
		t.Error("empty CDF Points should be nil")
	}
}

func TestCDFPoints(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	c := NewCDF(xs)
	pts := c.Points(10)
	if len(pts) != 10 {
		t.Fatalf("Points(10) returned %d points", len(pts))
	}
	if pts[len(pts)-1][1] != 1 {
		t.Errorf("last point probability = %v, want 1", pts[len(pts)-1][1])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] || pts[i][1] <= pts[i-1][1] {
			t.Errorf("Points not monotone at %d: %v -> %v", i, pts[i-1], pts[i])
		}
	}
	// Requesting more points than samples clamps.
	if got := len(NewCDF([]float64{1, 2}).Points(10)); got != 2 {
		t.Errorf("clamped Points = %d, want 2", got)
	}
}

func TestCDFPropertyMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		// The inverse CDF is monotone and spans the sample's range.
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for p := 0.0; p <= 1; p += 1.0 / 64 {
			v := c.Inverse(p)
			if v < prev || v < sorted[0] || v > sorted[len(sorted)-1] {
				return false
			}
			prev = v
		}
		return c.Inverse(0) == sorted[0] && c.Inverse(1) == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuantilePropertyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		q := rng.Float64()
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		v := quantileSorted(sorted, q)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return v >= lo && v <= hi
	}
	for i := 0; i < 200; i++ {
		if !f() {
			t.Fatalf("quantile outside sample range on iteration %d", i)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "Demo", Headers: []string{"arch", "cost"}}
	tbl.AddRow("fat-tree", 12773376.0)
	tbl.AddRow("sharebackup", 0.0672)
	out := tbl.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "fat-tree") {
		t.Errorf("rendered table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, rule, 2 rows -> 5? title+header+rule+2 = 5
		if len(lines) != 5 {
			t.Errorf("table has %d lines:\n%s", len(lines), out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{3, "3"},
		{math.NaN(), "NaN"},
		{math.Inf(1), "Inf"},
		{1234.56, "1234.6"},
		{1.5, "1.500"},
		{0.0672, "0.0672"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.v); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestRenderSeries(t *testing.T) {
	a := &Series{Name: "ShareBackup", XLabel: "k"}
	b := &Series{Name: "AspenTree"}
	for _, k := range []float64{8, 16, 24} {
		a.Add(k, k/100)
		b.Add(k, k/10)
	}
	out, err := RenderSeries("Figure 5", a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 5", "ShareBackup", "AspenTree", "k"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered series missing %q:\n%s", want, out)
		}
	}
	// Mismatched series must be rejected.
	c := &Series{Name: "short"}
	c.Add(8, 1)
	if _, err := RenderSeries("bad", a, c); err == nil {
		t.Error("mismatched series length accepted")
	}
	d := &Series{Name: "shifted"}
	d.Add(9, 1)
	d.Add(16, 2)
	d.Add(24, 3)
	if _, err := RenderSeries("bad", a, d); err == nil {
		t.Error("mismatched series x-axis accepted")
	}
	if _, err := RenderSeries("empty"); err == nil {
		t.Error("empty series list accepted")
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(6, 3); got != 2 {
		t.Errorf("Ratio = %v", got)
	}
	if !math.IsNaN(Ratio(1, 0)) {
		t.Error("Ratio by zero should be NaN")
	}
}
