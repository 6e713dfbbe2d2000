package fluid

import (
	"math"
	"math/rand"
	"testing"

	"sharebackup/internal/topo"
)

// line builds a linear topology h0 - s - h1 [- s2 - h2 ...] with given
// capacities and returns it plus the node IDs.
func line(t *testing.T, caps ...float64) (*topo.Topology, []topo.NodeID) {
	t.Helper()
	g := &topo.Topology{}
	nodes := []topo.NodeID{g.AddNode(topo.KindHost, 0, 0)}
	for i, c := range caps {
		n := g.AddNode(topo.KindHost, 0, i+1)
		if _, err := g.AddLink(nodes[len(nodes)-1], n, c); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	return g, nodes
}

func pathOf(t *testing.T, g *topo.Topology, nodes ...topo.NodeID) topo.Path {
	t.Helper()
	p := topo.Path{Nodes: nodes}
	for i := 0; i+1 < len(nodes); i++ {
		l := g.LinkBetween(nodes[i], nodes[i+1])
		if l == topo.NoLink {
			t.Fatalf("no link between %d and %d", nodes[i], nodes[i+1])
		}
		p.Links = append(p.Links, l)
	}
	return p
}

func TestSingleFlowCompletion(t *testing.T) {
	g, n := line(t, 10) // one link, capacity 10 B/s
	s := New(g)
	p := pathOf(t, g, n[0], n[1])
	if err := s.AddFlow(1, 100, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	f := s.Flow(1)
	if !f.Done() {
		t.Fatal("flow not done")
	}
	if math.Abs(f.Finish()-10) > 1e-9 {
		t.Errorf("finish = %v, want 10 (100 B at 10 B/s)", f.Finish())
	}
}

func TestFairSharing(t *testing.T) {
	g, n := line(t, 10)
	s := New(g)
	p := pathOf(t, g, n[0], n[1])
	// Two equal flows share the link: each runs at 5 B/s.
	if err := s.AddFlow(1, 100, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlow(2, 50, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	// Flow 2 finishes at 10s (50 B at 5 B/s); flow 1 then speeds up:
	// 50 B remain at t=10, at 10 B/s -> finish 15.
	if got := s.Flow(2).Finish(); math.Abs(got-10) > 1e-9 {
		t.Errorf("flow 2 finish = %v, want 10", got)
	}
	if got := s.Flow(1).Finish(); math.Abs(got-15) > 1e-9 {
		t.Errorf("flow 1 finish = %v, want 15", got)
	}
}

func TestMaxMinTwoBottlenecks(t *testing.T) {
	// Classic max-min: flows A and B share link 1 (cap 1); B also crosses
	// link 2 (cap 0.2). B is bottlenecked at 0.2; A gets the residual 0.8.
	g, n := line(t, 1, 0.2)
	s := New(g)
	pa := pathOf(t, g, n[0], n[1])
	pb := pathOf(t, g, n[0], n[1], n[2])
	if err := s.AddFlow(1, 8, 0, pa); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlow(2, 2, 0, pb); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(0); err != nil { // compute rates at t=0
		t.Fatal(err)
	}
	if got := s.Flow(1).Rate(); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("flow A rate = %v, want 0.8", got)
	}
	if got := s.Flow(2).Rate(); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("flow B rate = %v, want 0.2", got)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	// B: 2 B at 0.2 -> 10s. A: 8 B at 0.8 -> also 10s.
	if got := s.Flow(2).Finish(); math.Abs(got-10) > 1e-9 {
		t.Errorf("flow B finish = %v, want 10", got)
	}
	if got := s.Flow(1).Finish(); math.Abs(got-10) > 1e-9 {
		t.Errorf("flow A finish = %v, want 10", got)
	}
}

func TestLateArrival(t *testing.T) {
	g, n := line(t, 10)
	s := New(g)
	p := pathOf(t, g, n[0], n[1])
	if err := s.AddFlow(1, 100, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlow(2, 30, 4, p); err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	// Flow 1 alone until t=4 (40 B done), then 5 B/s each. Flow 2: 30 B at
	// 5 B/s -> finishes at 10. Flow 1: at t=10 it has 60-30=30 B left,
	// full rate -> finishes at 13.
	if got := s.Flow(2).Finish(); math.Abs(got-10) > 1e-9 {
		t.Errorf("flow 2 finish = %v, want 10", got)
	}
	if got := s.Flow(1).Finish(); math.Abs(got-13) > 1e-9 {
		t.Errorf("flow 1 finish = %v, want 13", got)
	}
}

func TestStallAndReroute(t *testing.T) {
	// Two parallel 2-hop routes between h0 and h2 via m1/m2.
	g := &topo.Topology{}
	h0 := g.AddNode(topo.KindHost, 0, 0)
	m1 := g.AddNode(topo.KindEdge, 0, 0)
	m2 := g.AddNode(topo.KindEdge, 0, 1)
	h2 := g.AddNode(topo.KindHost, 0, 1)
	for _, pair := range [][2]topo.NodeID{{h0, m1}, {m1, h2}, {h0, m2}, {m2, h2}} {
		if _, err := g.AddLink(pair[0], pair[1], 10); err != nil {
			t.Fatal(err)
		}
	}
	s := New(g)
	p1 := pathOf(t, g, h0, m1, h2)
	p2 := pathOf(t, g, h0, m2, h2)
	if err := s.AddFlow(1, 100, 0, p1); err != nil {
		t.Fatal(err)
	}
	// Run to t=5: 50 B transferred. Then the path fails; stall for 5s.
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPath(1, topo.Path{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	f := s.Flow(1)
	if !f.Stalled() {
		t.Error("flow should be stalled")
	}
	if math.Abs(f.Remaining()-50) > 1e-9 {
		t.Errorf("remaining = %v, want 50 (no progress while stalled)", f.Remaining())
	}
	// Reroute onto the second path; finish at t=15.
	if err := s.SetPath(1, p2); err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if got := f.Finish(); math.Abs(got-15) > 1e-9 {
		t.Errorf("finish = %v, want 15", got)
	}
}

func TestRunToCompletionStalledForever(t *testing.T) {
	g, n := line(t, 1)
	s := New(g)
	if err := s.AddFlow(1, 1, 0, topo.Path{}); err != nil {
		t.Fatal(err)
	}
	_ = n
	if err := s.RunToCompletion(); err == nil {
		t.Error("RunToCompletion succeeded with a permanently stalled flow")
	}
}

func TestAddFlowValidation(t *testing.T) {
	g, n := line(t, 1)
	s := New(g)
	p := pathOf(t, g, n[0], n[1])
	if err := s.AddFlow(1, 1, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlow(1, 1, 0, p); err == nil {
		t.Error("duplicate flow ID accepted")
	}
	if err := s.AddFlow(2, 0, 0, p); err == nil {
		t.Error("zero-byte flow accepted")
	}
	if err := s.AddFlow(3, math.NaN(), 0, p); err == nil {
		t.Error("NaN bytes accepted")
	}
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlow(4, 1, 2, p); err == nil {
		t.Error("arrival in the past accepted")
	}
	if err := s.Run(3); err == nil {
		t.Error("Run into the past accepted")
	}
	if err := s.SetPath(99, p); err == nil {
		t.Error("SetPath on unknown flow accepted")
	}
}

func TestOnCompleteCallback(t *testing.T) {
	g, n := line(t, 10)
	s := New(g)
	p := pathOf(t, g, n[0], n[1])
	var order []FlowID
	s.OnComplete = func(f *Flow) { order = append(order, f.ID()) }
	if err := s.AddFlow(1, 100, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlow(2, 10, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Errorf("completion order = %v, want [2, 1]", order)
	}
}

func TestSetPathAfterDoneRejected(t *testing.T) {
	g, n := line(t, 10)
	s := New(g)
	p := pathOf(t, g, n[0], n[1])
	if err := s.AddFlow(1, 10, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPath(1, p); err == nil {
		t.Error("SetPath on completed flow accepted")
	}
}

// TestCapacityConservationProperty checks, over random fat-tree workloads,
// that max-min rates never oversubscribe a link and that every connected
// flow gets a strictly positive rate (no starvation).
func TestCapacityConservationProperty(t *testing.T) {
	ft, err := topo.NewFatTree(topo.Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		s := New(ft.Topology)
		nf := 1 + rng.Intn(40)
		for i := 0; i < nf; i++ {
			src := rng.Intn(ft.NumHosts())
			dst := rng.Intn(ft.NumHosts())
			if dst == src {
				dst = (dst + 1) % ft.NumHosts()
			}
			paths, err := ft.ECMPPaths(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.AddFlow(FlowID(i), 1e9, 0, paths[rng.Intn(len(paths))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		usage := make([]float64, ft.NumLinks())
		for i := 0; i < nf; i++ {
			f := s.Flow(FlowID(i))
			if f.Rate() <= 0 {
				t.Fatalf("trial %d: flow %d starved (rate %v)", trial, i, f.Rate())
			}
			for _, l := range f.Path().Links {
				usage[l] += f.Rate()
			}
		}
		for l, u := range usage {
			if u > ft.Link(topo.LinkID(l)).Capacity*(1+1e-9) {
				t.Fatalf("trial %d: link %d oversubscribed: %v > %v", trial, l, u, ft.Link(topo.LinkID(l)).Capacity)
			}
		}
		// Work conservation: every flow is bottlenecked somewhere, i.e.
		// crosses at least one (nearly) fully utilized link.
		for i := 0; i < nf; i++ {
			f := s.Flow(FlowID(i))
			bottlenecked := false
			for _, l := range f.Path().Links {
				if usage[l] >= ft.Link(l).Capacity*(1-1e-6) {
					bottlenecked = true
					break
				}
			}
			if !bottlenecked {
				t.Fatalf("trial %d: flow %d is not bottlenecked anywhere (rate %v); not max-min", trial, i, f.Rate())
			}
		}
	}
}

func TestUtilization(t *testing.T) {
	g, n := line(t, 10, 5)
	s := New(g)
	p1 := pathOf(t, g, n[0], n[1])
	p2 := pathOf(t, g, n[0], n[1], n[2])
	if err := s.AddFlow(1, 100, 0, p1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlow(2, 100, 0, p2); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	u := s.Utilization()
	// Flow 2 is capped at 5 by the second link; flow 1 takes the rest of
	// the first link: utilization 10/10 and 5/5.
	if math.Abs(u[0]-1) > 1e-9 {
		t.Errorf("link 0 utilization = %v, want 1", u[0])
	}
	if math.Abs(u[1]-1) > 1e-9 {
		t.Errorf("link 1 utilization = %v, want 1", u[1])
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	for _, v := range s.Utilization() {
		if v != 0 {
			t.Errorf("utilization %v after completion, want 0", v)
		}
	}
}

func TestRunIsResumable(t *testing.T) {
	g, n := line(t, 10)
	s := New(g)
	p := pathOf(t, g, n[0], n[1])
	if err := s.AddFlow(1, 100, 0, p); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := s.Run(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	f := s.Flow(1)
	if !f.Done() || math.Abs(f.Finish()-10) > 1e-9 {
		t.Errorf("piecewise run: done=%v finish=%v, want done at 10", f.Done(), f.Finish())
	}
}

// Test-side views of simulator state. The experiments read a flow's Rate,
// Done, Finish and Stalled; the tests below also check identity, size,
// route, remaining bytes and link load against the engine's tables.

func (f *Flow) ID() FlowID { return f.id }

func (f *Flow) Bytes() float64 { return f.sim.fBytes[f.fi] }

func (f *Flow) Arrival() float64 { return f.sim.fArrival[f.fi] }

func (f *Flow) Path() topo.Path { return f.sim.fPath[f.fi] }

// Remaining materializes the bytes the flow still has to transfer: bytes
// drain lazily between rate changes.
func (f *Flow) Remaining() float64 {
	s, fi := f.sim, f.fi
	h := &s.hot[fi]
	r := h.remaining
	if !s.fStarted[fi] || s.fDone[fi] {
		return r
	}
	if h.rate > 0 {
		r -= h.rate * (s.now - h.lastT)
		if r < 0 {
			r = 0
		}
	}
	return r
}

// Utilization returns each link's aggregate flow rate over its capacity,
// refreshing rates first.
func (s *Simulator) Utilization() []float64 {
	s.recompute()
	util := make([]float64, len(s.links))
	for _, fi := range s.active {
		h := &s.hot[fi]
		for _, l := range s.linkArena[h.off : h.off+h.nl] {
			util[l] += h.rate
		}
	}
	for i := range util {
		if c := s.links[i].cap; c > 0 {
			util[i] /= c
		}
	}
	return util
}

// SetTelemetry attaches (nil detaches) telemetry on this simulator only,
// overriding the process default it was built with; Telemetry reads it.
func (s *Simulator) SetTelemetry(t *Telemetry) { s.tel.Store(t) }

func (s *Simulator) Telemetry() *Telemetry { return s.tel.Load() }
