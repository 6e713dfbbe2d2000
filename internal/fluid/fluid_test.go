package fluid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

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
	if err := s.AddFlow(0, 100, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	f := s.Flow(0)
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
	if err := s.AddFlow(0, 100, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlow(1, 50, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	// Flow 1 finishes at 10s (50 B at 5 B/s); flow 0 then speeds up:
	// 50 B remain at t=10, at 10 B/s -> finish 15.
	if got := s.Flow(1).Finish(); math.Abs(got-10) > 1e-9 {
		t.Errorf("flow 1 finish = %v, want 10", got)
	}
	if got := s.Flow(0).Finish(); math.Abs(got-15) > 1e-9 {
		t.Errorf("flow 0 finish = %v, want 15", got)
	}
}

func TestMaxMinTwoBottlenecks(t *testing.T) {
	// Classic max-min: flows A and B share link 1 (cap 1); B also crosses
	// link 2 (cap 0.2). B is bottlenecked at 0.2; A gets the residual 0.8.
	g, n := line(t, 1, 0.2)
	s := New(g)
	pa := pathOf(t, g, n[0], n[1])
	pb := pathOf(t, g, n[0], n[1], n[2])
	if err := s.AddFlow(0, 8, 0, pa); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlow(1, 2, 0, pb); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(0); err != nil { // compute rates at t=0
		t.Fatal(err)
	}
	if got := s.Flow(0).Rate(); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("flow A rate = %v, want 0.8", got)
	}
	if got := s.Flow(1).Rate(); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("flow B rate = %v, want 0.2", got)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	// B: 2 B at 0.2 -> 10s. A: 8 B at 0.8 -> also 10s.
	if got := s.Flow(1).Finish(); math.Abs(got-10) > 1e-9 {
		t.Errorf("flow B finish = %v, want 10", got)
	}
	if got := s.Flow(0).Finish(); math.Abs(got-10) > 1e-9 {
		t.Errorf("flow A finish = %v, want 10", got)
	}
}

func TestLateArrival(t *testing.T) {
	g, n := line(t, 10)
	s := New(g)
	p := pathOf(t, g, n[0], n[1])
	if err := s.AddFlow(0, 100, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlow(1, 30, 4, p); err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	// Flow 0 alone until t=4 (40 B done), then 5 B/s each. Flow 1: 30 B at
	// 5 B/s -> finishes at 10. Flow 0: at t=10 it has 60-30=30 B left,
	// full rate -> finishes at 13.
	if got := s.Flow(1).Finish(); math.Abs(got-10) > 1e-9 {
		t.Errorf("flow 1 finish = %v, want 10", got)
	}
	if got := s.Flow(0).Finish(); math.Abs(got-13) > 1e-9 {
		t.Errorf("flow 0 finish = %v, want 13", got)
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
	if err := s.AddFlow(0, 100, 0, p1); err != nil {
		t.Fatal(err)
	}
	// Run to t=5: 50 B transferred. Then the path fails; stall for 5s.
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPath(0, topo.Path{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	f := s.Flow(0)
	if !f.Stalled() {
		t.Error("flow should be stalled")
	}
	if math.Abs(f.Remaining()-50) > 1e-9 {
		t.Errorf("remaining = %v, want 50 (no progress while stalled)", f.Remaining())
	}
	// Reroute onto the second path; finish at t=15.
	if err := s.SetPath(0, p2); err != nil {
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
	if err := s.AddFlow(0, 1, 0, topo.Path{}); err != nil {
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
	if err := s.AddFlow(0, 1, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	outside := topo.Path{Links: []topo.LinkID{p.Links[0], topo.LinkID(g.NumLinks())}}
	for _, c := range []struct {
		name           string
		id             FlowID
		bytes, arrival float64
		path           topo.Path
	}{
		{"an ID already taken", 0, 1, 6, p},
		{"an ID past the next slot", 2, 1, 6, p},
		{"a negative ID", -1, 1, 6, p},
		{"zero bytes", 1, 0, 6, p},
		{"NaN bytes", 1, math.NaN(), 6, p},
		{"NaN arrival", 1, 1, math.NaN(), p},
		{"+Inf arrival", 1, 1, math.Inf(1), p},
		{"-Inf arrival", 1, 1, math.Inf(-1), p},
		{"an arrival in the past", 1, 1, 2, p},
		{"a link outside the topology", 1, 1, 6, outside},
		{"a negative link", 1, 1, 6, topo.Path{Links: []topo.LinkID{-1}}},
	} {
		if err := s.AddFlow(c.id, c.bytes, c.arrival, c.path); err == nil {
			t.Errorf("AddFlow accepted %s", c.name)
		}
	}
	// Nothing rejected took a slot: the next ID is still 1.
	if err := s.AddFlow(1, 1, 6, p); err != nil {
		t.Fatalf("AddFlow after rejections: %v", err)
	}
	if err := s.SetPath(1, outside); err == nil {
		t.Error("SetPath accepted a link outside the topology")
	} else if !strings.Contains(err.Error(), "flow 1") || !strings.Contains(err.Error(), fmt.Sprintf("link %d", g.NumLinks())) {
		t.Errorf("SetPath error %q names neither the flow nor the link", err)
	}
	if err := s.Run(3); err == nil {
		t.Error("Run into the past accepted")
	}
	for _, id := range []FlowID{2, 99, -1} {
		if err := s.SetPath(id, p); err == nil {
			t.Errorf("SetPath on unknown flow %d accepted", id)
		}
		if s.Flow(id) != nil {
			t.Errorf("Flow(%d) returned a handle", id)
		}
	}
	// The rejected route left flow 1's own in place: it runs to completion.
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if f := s.Flow(1); !f.Done() || f.Finish() != 7 {
		t.Errorf("flow 1 done=%v finish=%v, want done at 7", f.Done(), f.Finish())
	}
}

// TestRunReturnsOnNonFiniteHorizon: Run(+Inf) drains every arrival and
// completion and returns, Run(NaN) is an error. Each call runs on its own
// goroutine so a hang fails the case by name instead of timing out the run.
func TestRunReturnsOnNonFiniteHorizon(t *testing.T) {
	g, n := line(t, 10)
	p := pathOf(t, g, n[0], n[1])
	for _, c := range []struct {
		name    string
		until   float64
		wantErr bool
	}{
		{"+Inf", math.Inf(1), false},
		{"NaN", math.NaN(), true},
	} {
		s := New(g)
		if err := s.AddFlow(0, 100, 0, p); err != nil {
			t.Fatal(err)
		}
		if err := s.AddFlow(1, 10, 3, topo.Path{}); err != nil { // stalled forever
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- s.Run(c.until) }()
		select {
		case err := <-done:
			if (err != nil) != c.wantErr {
				t.Errorf("Run(%s) = %v, want error %v", c.name, err, c.wantErr)
			}
			if c.wantErr {
				continue
			}
			if f := s.Flow(0); !f.Done() || f.Finish() != 10 {
				t.Errorf("Run(%s): flow 0 done=%v finish=%v, want done at 10", c.name, f.Done(), f.Finish())
			}
			if !s.Flow(1).Stalled() || s.now != 10 {
				t.Errorf("Run(%s): flow 1 stalled=%v, now %v; want stalled, now 10", c.name, s.Flow(1).Stalled(), s.now)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Run(%s) still running after 10 s", c.name)
		}
	}
}

// TestCompactionKeepsPendingRoutes: a pending flow's route lives only in the
// incidence arena, so compactArena must carry it over like an attached one.
// Started flows are rerouted onto ever longer routes until retired spans
// outweigh live ones and the arena compacts; pending flows are rerouted
// before and after that compaction, and some never. Every finish time must
// equal, bit for bit, that of a twin that added the pending flows with their
// final routes and applied only the started flows' reroutes.
func TestCompactionKeepsPendingRoutes(t *testing.T) {
	ft, err := topo.NewFatTree(topo.Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	nl := ft.NumLinks()
	// route is n distinct links starting at link i (7 is coprime with the
	// k=4 fabric's 48 links, so the stride visits them all).
	route := func(i, n int) topo.Path {
		p := topo.Path{}
		for j := 0; j < n; j++ {
			p.Links = append(p.Links, topo.LinkID((i+7*j)%nl))
		}
		return p
	}
	const started, pending, longest = 64, 16, 24
	first := func(i int) topo.Path { return route(3*i, 1+i%5) }
	before := func(i int) topo.Path { return route(5*i, 6+i%3) }
	final := func(i int) topo.Path {
		switch i % 4 {
		case 0:
			return first(i) // never rerouted
		case 1:
			return before(i) // rerouted before the compaction only
		case 2:
			return route(11*i, 2) // shrunk after it
		}
		return route(11*i, 9+i%4) // grown after it
	}

	sim, twin := New(ft.Topology), New(ft.Topology)
	for _, s := range []*Simulator{sim, twin} {
		for i := 0; i < started; i++ {
			if err := s.AddFlow(FlowID(i), 2+float64(i%7), 0, route(i, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < pending; i++ {
		id := FlowID(started + i)
		if err := sim.AddFlow(id, 1+float64(i%3), 50, first(i)); err != nil {
			t.Fatal(err)
		}
		if err := twin.AddFlow(id, 1+float64(i%3), 50, final(i)); err != nil {
			t.Fatal(err)
		}
	}
	setPending := func(path func(int) topo.Path, kinds ...int) {
		for i := 0; i < pending; i++ {
			if slices.Contains(kinds, i%4) {
				if err := sim.SetPath(FlowID(started+i), path(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	setPending(before, 1, 2, 3)

	compactions, arenaLen := 0, len(sim.linkArena)
	now := 0.0
	for n := 2; n <= longest; n++ {
		now += 0.01
		for _, s := range []*Simulator{sim, twin} {
			if err := s.Run(now); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < started; i++ {
				if s.Flow(FlowID(i)).Done() {
					continue
				}
				if err := s.SetPath(FlowID(i), route(i, n)); err != nil {
					t.Fatal(err)
				}
				if s == sim {
					if len(sim.linkArena) < arenaLen {
						compactions++
					}
					arenaLen = len(sim.linkArena)
				}
			}
		}
	}
	if compactions == 0 {
		t.Fatal("the reroutes never compacted the arena")
	}
	for i := 0; i < pending; i++ {
		want := first(i)
		if i%4 != 0 {
			want = before(i)
		}
		if got := sim.Flow(FlowID(started + i)).Path(); !slices.Equal(got.Links, want.Links) {
			t.Fatalf("pending flow %d: route %v after %d compactions, want %v", started+i, got.Links, compactions, want.Links)
		}
	}
	setPending(final, 2, 3)

	for _, s := range []*Simulator{sim, twin} {
		if err := s.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
	}
	for id := FlowID(0); id < started+pending; id++ {
		if a, b := sim.Flow(id).Finish(), twin.Flow(id).Finish(); math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("flow %d finishes at %v, its twin at %v", id, a, b)
		}
	}
	t.Logf("%d compactions", compactions)
}

// TestCompletionOrder checks that the shorter of two flows sharing a link
// finishes first, and that each finish time is where the max-min shares put
// it: both run at 5 until the 10-byte flow ends at 2, then the other at 10.
func TestCompletionOrder(t *testing.T) {
	g, n := line(t, 10)
	s := New(g)
	p := pathOf(t, g, n[0], n[1])
	if err := s.AddFlow(0, 100, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlow(1, 10, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if f0, f1 := s.Flow(0).Finish(), s.Flow(1).Finish(); f1 != 2 || f0 != 11 {
		t.Errorf("finish times: flow 0 at %v, flow 1 at %v; want 11 and 2", f0, f1)
	}
}

func TestSetPathAfterDoneRejected(t *testing.T) {
	g, n := line(t, 10)
	s := New(g)
	p := pathOf(t, g, n[0], n[1])
	if err := s.AddFlow(0, 10, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPath(0, p); err == nil {
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
	if err := s.AddFlow(0, 100, 0, p1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFlow(1, 100, 0, p2); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	u := s.Utilization()
	// Flow 1 is capped at 5 by the second link; flow 0 takes the rest of
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
	if err := s.AddFlow(0, 100, 0, p); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := s.Run(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	f := s.Flow(0)
	if !f.Done() || math.Abs(f.Finish()-10) > 1e-9 {
		t.Errorf("piecewise run: done=%v finish=%v, want done at 10", f.Done(), f.Finish())
	}
}

// Test-side views of simulator state. The experiments read a flow's Rate,
// Done, Finish and Stalled; the tests below also check arrival, route,
// remaining bytes and link load against the engine's tables.

func (f *Flow) Arrival() float64 { return f.sim.cold[f.fi].arrival }

// Path returns the links of a flow that is not done (a completed flow's
// route may have been compacted away).
func (f *Flow) Path() topo.Path {
	s := f.sim
	off, n := s.hot[f.fi].off, s.cold[f.fi].rlen
	if n == 0 {
		return topo.Path{}
	}
	return topo.Path{Links: slices.Clone(s.linkArena[off : off+n])}
}

// Remaining materializes the bytes the flow still has to transfer: bytes
// drain lazily between rate changes.
func (f *Flow) Remaining() float64 {
	s, fi := f.sim, f.fi
	h := &s.hot[fi]
	r := h.remaining
	if c := &s.cold[fi]; !c.started || c.done {
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
	s.endRun()
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
// overriding the process default it was built with; Telemetry reads it. Call
// it before Run.
func (s *Simulator) SetTelemetry(t *Telemetry) { s.tel = t }

func (s *Simulator) Telemetry() *Telemetry { return s.tel }
