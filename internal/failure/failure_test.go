package failure

import (
	"math"
	"testing"

	"sharebackup/internal/topo"
)

func newFT(t *testing.T, k int) *topo.FatTree {
	t.Helper()
	ft, err := topo.NewFatTree(topo.Config{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestUnavailability(t *testing.T) {
	// 5-minute repairs every ~35 days give about four nines.
	mtbf := 35 * 24 * 3600.0
	mttr := 300.0
	p := Unavailability(mtbf, mttr)
	if p < 0.00009 || p > 0.00011 {
		t.Errorf("unavailability = %v, want ~1e-4", p)
	}
	if !math.IsNaN(Unavailability(0, 1)) || !math.IsNaN(Unavailability(-1, 1)) {
		t.Error("invalid MTBF accepted")
	}
}

func TestBinomialTail(t *testing.T) {
	// P[X > 0] = 1 - (1-p)^size.
	size, p := 24, SwitchFailureRate
	want := 1 - math.Pow(1-p, float64(size))
	if got := BinomialTail(size, 0, p); math.Abs(got-want) > 1e-12 {
		t.Errorf("BinomialTail(size, 0) = %v, want %v", got, want)
	}
	// Monotone in n.
	prev := 1.0
	for n := 0; n <= size; n++ {
		cur := BinomialTail(size, n, p)
		if cur > prev {
			t.Fatalf("tail not monotone at n=%d: %v > %v", n, cur, prev)
		}
		prev = cur
	}
	if got := BinomialTail(size, size, p); got != 0 {
		t.Errorf("P[X > size] = %v, want 0", got)
	}
	// Section 5.1's claim: with k=48 and n=1, a failure group of 24
	// switches at a 0.01% failure rate essentially never exceeds one
	// concurrent failure.
	if got := BinomialTail(24, 1, SwitchFailureRate); got > 1e-5 {
		t.Errorf("P[group overflow] = %v; paper expects negligible", got)
	}
	if !math.IsNaN(BinomialTail(-1, 0, p)) || !math.IsNaN(BinomialTail(3, 0, 2)) {
		t.Error("invalid arguments accepted")
	}
}

func TestExpectedConcurrent(t *testing.T) {
	// A k=48 fat-tree has 2880 switches; at 1e-4 unavailability that is
	// ~0.29 concurrent failures — far below the 120 backups n=1 provides.
	if got := ExpectedConcurrent(2880, SwitchFailureRate); math.Abs(got-0.288) > 1e-9 {
		t.Errorf("expected concurrent = %v", got)
	}
}

func TestReroutableSwitchesExcludesEdge(t *testing.T) {
	ft := newFT(t, 4)
	in := NewInjector(ft, 1)
	for _, id := range in.ReroutableSwitches() {
		if k := ft.Node(id).Kind; k != topo.KindAgg && k != topo.KindCore {
			t.Fatalf("candidate %v has kind %v", id, k)
		}
	}
	if got, want := len(in.ReroutableSwitches()), 8+4; got != want {
		t.Errorf("reroutable switches = %d, want %d", got, want)
	}
	if got, want := len(in.FabricLinks()), 32; got != want {
		t.Errorf("fabric links = %d, want %d (k^3/2)", got, want)
	}
}

func TestSampleNodes(t *testing.T) {
	ft := newFT(t, 8)
	in := NewInjector(ft, 42)
	cands := in.ReroutableSwitches()

	if got, err := in.SampleNodes(cands, 0); err != nil || got != nil {
		t.Errorf("rate 0: %v, %v", got, err)
	}
	one, err := in.SampleNodes(cands, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 {
		t.Errorf("tiny positive rate should fail exactly one node, got %d", len(one))
	}
	half, err := in.SampleNodes(cands, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(half) != len(cands)/2 {
		t.Errorf("rate 0.5 failed %d of %d", len(half), len(cands))
	}
	seen := make(map[topo.NodeID]bool)
	for _, n := range half {
		if seen[n] {
			t.Fatal("duplicate sample")
		}
		seen[n] = true
	}
	all, err := in.SampleNodes(cands, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(cands) {
		t.Errorf("rate 1 failed %d of %d", len(all), len(cands))
	}
	if _, err := in.SampleNodes(cands, 1.5); err == nil {
		t.Error("rate > 1 accepted")
	}
	if _, err := in.SampleNodes(cands, -0.1); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestSampleLinks(t *testing.T) {
	ft := newFT(t, 4)
	in := NewInjector(ft, 7)
	links, err := in.SampleLinks(in.FabricLinks(), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 8 {
		t.Errorf("sampled %d links, want 8", len(links))
	}
	for _, l := range links {
		link := ft.Link(l)
		if !ft.Node(link.A).Kind.IsSwitch() || !ft.Node(link.B).Kind.IsSwitch() {
			t.Error("sampled a host link")
		}
	}
}

func TestBlockedConstruction(t *testing.T) {
	ft := newFT(t, 4)
	b := Blocked([]topo.NodeID{ft.Core(0)}, []topo.LinkID{0})
	if !b.NodeBlocked(ft.Core(0)) || !b.LinkBlocked(0) {
		t.Error("Blocked missing entries")
	}
}

// TestScenarios: a scenario blocks exactly the element it names, node or
// link, for the path filter the Fig. 1(c) replay applies.
func TestScenarios(t *testing.T) {
	ft := newFT(t, 4)
	for _, n := range []topo.NodeID{ft.Core(0), ft.Agg(0, 1)} {
		b := Scenario{Node: n, Link: topo.NoLink, Repair: 300}.Blocked()
		if !b.NodeBlocked(n) {
			t.Errorf("scenario on %v does not block it", n)
		}
		for _, other := range ft.SwitchIDs() {
			if other != n && b.NodeBlocked(other) {
				t.Errorf("scenario on %v also blocks %v", n, other)
			}
		}
	}
	b := Scenario{Node: topo.None, Link: 3, Repair: 300}.Blocked()
	if !b.LinkBlocked(3) || b.LinkBlocked(2) || b.NodeBlocked(0) {
		t.Error("link scenario blocks the wrong elements")
	}
}
