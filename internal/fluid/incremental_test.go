package fluid

import (
	"math"
	"testing"

	"sharebackup/internal/topo"
)

// pairField builds n disjoint host-pair links (2n hosts, n links of the
// given capacity) and returns the topology plus one path per pair.
func pairField(t testing.TB, n int, cap float64) (*topo.Topology, []topo.Path) {
	t.Helper()
	g := &topo.Topology{}
	paths := make([]topo.Path, 0, n)
	for i := 0; i < n; i++ {
		a := g.AddNode(topo.KindHost, 0, 2*i)
		b := g.AddNode(topo.KindHost, 0, 2*i+1)
		l, err := g.AddLink(a, b, cap)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, topo.Path{Nodes: []topo.NodeID{a, b}, Links: []topo.LinkID{l}})
	}
	return g, paths
}

// TestCohortCompletionNotQuadratic pins the tentpole's complexity win with
// work counters, not wall-clock: n disjoint pairs, two flows each, every
// flow completing at a distinct time. The seed engine recomputed all 2n
// rates on each of ~2n completions — Θ(n²) flow×link incidences — and
// spliced the active set by pointer equality. The incremental engine must
// keep each completion's recompute inside its own 2-flow component, so
// total recompute work stays O(n).
func TestCohortCompletionNotQuadratic(t *testing.T) {
	const n = 600
	g, paths := pairField(t, n, 10)
	s := New(g)
	for i := 0; i < n; i++ {
		// Distinct sizes: the pair's flows finish at distinct times, and no
		// two pairs finish together, so completions cannot batch.
		if err := s.AddFlow(FlowID(2*i), 100+float64(i), 0, paths[i]); err != nil {
			t.Fatal(err)
		}
		if err := s.AddFlow(FlowID(2*i+1), 300+2*float64(i), 0, paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	// The initial arrival batch dirties every link at once (one pass of 2n
	// incidences); every later pass must be component-sized. Budget: that
	// pass + ~2n scoped passes of a few incidences each. Quadratic behaviour
	// would cost ~2n²=720k.
	budget := int64(30 * n)
	if st.RecomputeWork > budget {
		t.Fatalf("recompute work = %d incidences for n=%d pairs, want <= %d (scoped); quadratic would be ~%d",
			st.RecomputeWork, n, budget, 2*n*n)
	}
	if st.FullRecomputes != 0 {
		t.Errorf("full recomputes = %d, want 0", st.FullRecomputes)
	}
	if st.HeapPops != 2*n {
		t.Errorf("heap pops = %d, want %d (one per completion)", st.HeapPops, 2*n)
	}
	// Sanity: the simulation itself is right — pair i's flows share the
	// link then the survivor speeds up.
	f0, f1 := s.Flow(0), s.Flow(1)
	if math.Abs(f0.Finish()-20) > 1e-9 { // 100 B at 5 B/s
		t.Errorf("flow 0 finish = %v, want 20", f0.Finish())
	}
	if math.Abs(f1.Finish()-40) > 1e-9 { // 100 B at 5, then 200 B at 10
		t.Errorf("flow 1 finish = %v, want 40", f1.Finish())
	}
}

// TestMassArrivalSeedsEachLinkOnce admits, at one instant, one flow per
// ordered rack pair of a k=8 fat-tree — the transient and Table 3 studies'
// all-to-all shape, more than 4 096 link incidences. The dirty links are a
// set: each loaded link is seeded once, the pass is the scoped one (never a
// fill over the whole active set), and every rate bit-equals the reference
// fill's.
func TestMassArrivalSeedsEachLinkOnce(t *testing.T) {
	ft, err := topo.NewFatTree(topo.Config{K: 8, HostsPerEdge: 1, HostCapacity: 40})
	if err != nil {
		t.Fatal(err)
	}
	build := func(full bool) *Simulator {
		s := New(ft.Topology)
		s.forceFull = full
		id := 0
		for src := 0; src < ft.NumHosts(); src++ {
			for dst := 0; dst < ft.NumHosts(); dst++ {
				if src == dst {
					continue
				}
				paths, err := ft.ECMPPaths(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.AddFlow(FlowID(id), 1e3, 0, paths[id%len(paths)]); err != nil {
					t.Fatal(err)
				}
				id++
			}
		}
		return s
	}
	ref, inc := build(true), build(false)

	inc.admitArrivals(0)
	loaded, incidences := 0, 0
	for l := range inc.links {
		if n := len(inc.links[l].flows); n > 0 {
			loaded++
			incidences += n
		}
	}
	if incidences <= 4096 {
		t.Fatalf("%d link incidences; the test wants more than 4096", incidences)
	}
	seen := make([]bool, len(inc.links))
	for _, l := range inc.dirtySeeds {
		if seen[l] {
			t.Fatalf("link %d seeded twice", l)
		}
		seen[l] = true
	}
	if n := len(inc.dirtySeeds); n != loaded || n > ft.NumLinks() {
		t.Fatalf("%d dirty seeds for %d loaded links (%d links in all)", n, loaded, ft.NumLinks())
	}

	for _, s := range []*Simulator{ref, inc} {
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	if st := inc.Stats(); st.FullRecomputes != 0 || st.Recomputes != 1 {
		t.Errorf("FullRecomputes %d of %d passes, want 0 of 1", st.FullRecomputes, st.Recomputes)
	}
	for id := FlowID(0); id < FlowID(len(inc.hot)); id++ {
		if got, want := inc.Flow(id).Rate(), ref.Flow(id).Rate(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("flow %d: rate %v, reference %v", id, got, want)
		}
	}
}

// TestScopedMatchesFullExact replays an identical schedule — staggered
// arrivals, a mid-run reroute, a stall and recovery — through the scoped
// engine and the forced-full reference on a k=4 fat-tree, comparing every
// FCT. Unlike the randomized differential test this one is a readable,
// deterministic scenario that's easy to debug when it breaks.
func TestScopedMatchesFullExact(t *testing.T) {
	build := func(full bool) *Simulator {
		// Rack-local traffic (all pairs within each edge switch) gives the
		// link-sharing graph per-rack components; two cross-pod flows
		// temporarily bridge their racks through the spine.
		ft, err := topo.NewFatTree(topo.Config{K: 4, HostsPerEdge: 4, HostCapacity: 40})
		if err != nil {
			t.Fatal(err)
		}
		s := New(ft.Topology)
		s.forceFull = full
		id := 0
		add := func(src, dst int, bytes, arrival float64, variant int) {
			paths, err := ft.ECMPPaths(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.AddFlow(FlowID(id), bytes, arrival, paths[variant%len(paths)]); err != nil {
				t.Fatal(err)
			}
			id++
		}
		for pod := 0; pod < ft.K(); pod++ {
			for e := 0; e < 2; e++ {
				hosts := ft.HostsOfEdge(pod, e)
				for _, src := range hosts {
					for _, dst := range hosts {
						if src != dst {
							add(src, dst, 500+float64(50*(id%5)), float64(id%7)*0.3, 0)
						}
					}
				}
			}
		}
		crossA := FlowID(id)
		add(0, 17, 2000, 0.1, 0) // pod 0 -> pod 2
		add(9, 25, 2000, 0.2, 1) // pod 1 -> pod 3
		// Mid-run storm: reroute one cross flow onto an alternate spine
		// path, stall a rack flow for a while, then recover it.
		if err := s.Run(30); err != nil {
			t.Fatal(err)
		}
		pA, err := ft.ECMPPaths(0, 17)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Flow(crossA).Done() {
			if err := s.SetPath(crossA, pA[1%len(pA)]); err != nil {
				t.Fatal(err)
			}
		}
		if !s.Flow(9).Done() {
			if err := s.SetPath(9, topo.Path{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(60); err != nil {
			t.Fatal(err)
		}
		if !s.Flow(9).Done() {
			p9, err := ft.ECMPPaths(3, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SetPath(9, p9[0]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	inc, full := build(false), build(true)
	if inc.ActiveCount() != 0 || full.ActiveCount() != 0 {
		t.Fatal("flows left active")
	}
	for id := FlowID(0); ; id++ {
		fi, ff := inc.Flow(id), full.Flow(id)
		if fi == nil || ff == nil {
			break
		}
		tol := 64 * relEps * (math.Abs(ff.Finish()) + 1)
		if math.Abs(fi.Finish()-ff.Finish()) > tol {
			t.Errorf("flow %d: incremental finish %v, full finish %v (Δ=%g > %g)",
				id, fi.Finish(), ff.Finish(), math.Abs(fi.Finish()-ff.Finish()), tol)
		}
	}
	// The scoped engine must actually have scoped something on this
	// workload (the k=4 fabric is one component while saturated, but the
	// draining tail breaks apart).
	si, sf := inc.Stats(), full.Stats()
	if si.FullRecomputes >= si.Recomputes {
		t.Errorf("scoped engine never scoped: %d full of %d passes", si.FullRecomputes, si.Recomputes)
	}
	if sf.FullRecomputes != sf.Recomputes {
		t.Errorf("reference engine scoped: %d full of %d passes", sf.FullRecomputes, sf.Recomputes)
	}
	if si.RecomputeWork >= sf.RecomputeWork {
		t.Errorf("scoped work %d >= full work %d; incremental engine saved nothing",
			si.RecomputeWork, sf.RecomputeWork)
	}
}

// TestUtilizationInto pins the reusable-buffer contract: the returned slice
// aliases the input when capacity suffices, and matches Utilization.
// TestHeapStaysIndexed: a reroute storm re-keys finish events en masse; the
// indexed heap must hold at most one entry per active flow (no stale debris)
// and keep the flows' heap positions consistent.
func TestHeapStaysIndexed(t *testing.T) {
	g, paths := pairField(t, 4, 10)
	s := New(g)
	for i, p := range paths {
		if err := s.AddFlow(FlowID(i), 1e6, 0, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	// Thrash: each stall removes the flow's finish event, each recovery
	// re-schedules it — thousands of re-keys over the same small flow set.
	for round := 0; round < 5000; round++ {
		id := FlowID(round % len(paths))
		if err := s.SetPath(id, topo.Path{}); err != nil {
			t.Fatal(err)
		}
		if err := s.SetPath(id, paths[id]); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(s.now); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.fin.Len(); got > len(s.active) {
		t.Fatalf("finish heap holds %d entries for %d active flows; stale entries leaked",
			got, len(s.active))
	}
	for p, e := range s.fin {
		if got := s.hot[e.fi].heapPos; got != int32(p) {
			t.Fatalf("heap entry %d (flow slot %d) has heapPos %d", p, e.fi, got)
		}
	}
	for fi := range s.hot {
		if p := s.hot[fi].heapPos; p >= 0 && s.fin[p].fi != int32(fi) {
			t.Fatalf("slot %d has heapPos %d but heap entry holds slot %d", fi, p, s.fin[p].fi)
		}
	}
}
