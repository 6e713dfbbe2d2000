package fluid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sharebackup/internal/topo"
)

// TestQuickMaxMinInvariants checks, over random topologies and workloads,
// the three defining properties of max-min fair rates:
//
//  1. feasibility: no link carries more than its capacity;
//  2. no starvation: every connected flow has a positive rate;
//  3. max-min optimality (bottleneck characterization): every flow crosses
//     at least one saturated link on which it has a maximal rate.
func TestQuickMaxMinInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Random connected graph.
		n := 3 + r.Intn(8)
		g := &topo.Topology{}
		var nodes []topo.NodeID
		for i := 0; i < n; i++ {
			nodes = append(nodes, g.AddNode(topo.KindEdge, 0, i))
		}
		for i := 1; i < n; i++ {
			cap := 0.5 + r.Float64()*4
			if _, err := g.AddLink(nodes[i], nodes[r.Intn(i)], cap); err != nil {
				return false
			}
		}
		for extra := 0; extra < n/2; extra++ {
			a, b := r.Intn(n), r.Intn(n)
			if a == b || g.LinkBetween(nodes[a], nodes[b]) != topo.NoLink {
				continue
			}
			if _, err := g.AddLink(nodes[a], nodes[b], 0.5+r.Float64()*4); err != nil {
				return false
			}
		}
		sim := New(g)
		nf := 1 + r.Intn(12)
		for i := 0; i < nf; i++ {
			a, b := r.Intn(n), r.Intn(n)
			if a == b {
				b = (b + 1) % n
			}
			p, ok := g.ShortestPath(nodes[a], nodes[b], nil)
			if !ok {
				return false
			}
			if err := sim.AddFlow(FlowID(i), 1e9, 0, p); err != nil {
				return false
			}
		}
		if err := sim.Run(0); err != nil {
			return false
		}
		usage := make([]float64, g.NumLinks())
		for i := 0; i < nf; i++ {
			fl := sim.Flow(FlowID(i))
			if fl.Rate() <= 0 {
				return false // starvation
			}
			for _, l := range fl.Path().Links {
				usage[l] += fl.Rate()
			}
		}
		const tol = 1e-6
		for l, u := range usage {
			if u > g.Link(topo.LinkID(l)).Capacity*(1+tol) {
				return false // infeasible
			}
		}
		// Bottleneck characterization.
		for i := 0; i < nf; i++ {
			fl := sim.Flow(FlowID(i))
			ok := false
			for _, l := range fl.Path().Links {
				saturated := usage[l] >= g.Link(l).Capacity*(1-tol)
				if !saturated {
					continue
				}
				maximal := true
				for j := 0; j < nf; j++ {
					other := sim.Flow(FlowID(j))
					if other.Path().ContainsLink(l) && other.Rate() > fl.Rate()*(1+tol) {
						maximal = false
						break
					}
				}
				if maximal {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickByteConservation: total bytes delivered equals total bytes
// offered when every flow completes, regardless of arrival pattern.
func TestQuickByteConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := &topo.Topology{}
		a := g.AddNode(topo.KindHost, 0, 0)
		m := g.AddNode(topo.KindEdge, 0, 0)
		b := g.AddNode(topo.KindHost, 0, 1)
		if _, err := g.AddLink(a, m, 1+r.Float64()*9); err != nil {
			return false
		}
		if _, err := g.AddLink(m, b, 1+r.Float64()*9); err != nil {
			return false
		}
		p, _ := g.ShortestPath(a, b, nil)
		sim := New(g)
		nf := 1 + r.Intn(10)
		total := 0.0
		sizes := make([]float64, nf)
		for i := range sizes {
			sizes[i] = 1 + r.Float64()*1000
			total += sizes[i]
			if err := sim.AddFlow(FlowID(i), sizes[i], r.Float64()*10, p); err != nil {
				return false
			}
		}
		if err := sim.RunToCompletion(); err != nil {
			return false
		}
		// Integrate delivered bytes from finish times: every flow done
		// with remaining == 0.
		for i := 0; i < nf; i++ {
			fl := sim.Flow(FlowID(i))
			if !fl.Done() || fl.Remaining() > 1e-6*sizes[i] {
				return false
			}
			if fl.Finish() < fl.Arrival()-1e-12 {
				return false
			}
			// A flow can never beat the line rate.
			minTime := sizes[i] / minCapOn(g, p)
			if fl.Finish()-fl.Arrival() < minTime*(1-1e-6) {
				return false
			}
		}
		return !math.IsNaN(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDifferentialIncrementalVsFull is the incremental engine's safety net:
// it replays >1000 randomized schedules — random connected topologies,
// staggered arrivals, mid-run reroutes, stalls and recoveries — through the
// scoped engine and the forced-full reference in lockstep, and asserts every
// flow's completion time agrees within relEps-scale tolerance. Because
// component-scoped progressive filling is exact (max-min allocations
// decompose over link-sharing components), any disagreement is a bug, not
// an approximation artifact.
func TestDifferentialIncrementalVsFull(t *testing.T) {
	schedules := 1200
	if testing.Short() {
		schedules = 150
	}
	// Each schedule runs twice: as the engine dispatches it (ripple fills,
	// component fills when the proof does not close), and with every pass
	// forced through component decomposition, so fills with and without
	// background both face the whole schedule set.
	var ripple, comps int64
	for seed := 0; seed < schedules; seed++ {
		for _, closed := range []bool{false, true} {
			st, ok := differentialSchedule(t, int64(seed), closed)
			if !ok {
				t.Fatalf("schedule %d (closed=%v) diverged", seed, closed)
			}
			if !closed {
				ripple += st.RipplePasses
			} else {
				comps += st.Components
				if st.RipplePasses != 0 {
					t.Fatalf("schedule %d: forced-closed run made %d ripple passes", seed, st.RipplePasses)
				}
			}
		}
	}
	if ripple == 0 || comps == 0 {
		t.Fatalf("modes not exercised: %d ripple passes, %d closed components", ripple, comps)
	}
}

// runClosed is Simulator.Run with every rate recomputation forced through
// exact component decomposition and closed-set fills, never the ripple
// pass: each pass seeds every loaded link, on the loop's worker.
func runClosed(s *Simulator, until float64) error {
	for {
		if len(s.dirtySeeds) > 0 {
			for l := range s.links {
				if len(s.links[l].flows) > 0 {
					s.markDirty(topo.LinkID(l))
				}
			}
			w := s.ws[0]
			w.p = s.newPass(&s.onLoop)
			w.decomposeFromSeeds()
			w.fillComponents()
			s.finish(w.p)
			w.p = nil
		}
		tArr := math.Inf(1)
		if s.pending.Len() > 0 {
			tArr = s.pending[0].at
		}
		tFin := s.nextFinishTime()
		t := math.Min(tArr, tFin)
		if t > until {
			s.now = until
			return nil
		}
		s.now = t
		if tArr <= tFin {
			s.admitArrivals(tArr)
		} else {
			s.completeDue()
		}
	}
}

// dbgDump, when set to t.Logf from a throwaway test, traces a diverging
// schedule: every add/reroute/stall with exact bytes/paths, the post-op
// rates in both engines, and link capacities. This is how the satTol near-
// tie bug was isolated from seed 1081.
var dbgDump func(string, ...any)

// differentialSchedule replays one randomized schedule through the scoped
// engine (closed: with every pass forced into component decomposition) and
// the forced-full reference, and returns the scoped engine's counters.
func differentialSchedule(t *testing.T, seed int64, closed bool) (EngineStats, bool) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))

	// Random connected graph with a pool of candidate paths. The fluid
	// engine treats a path as an opaque link set, so "reroute" just means
	// swapping in another pool entry.
	n := 4 + r.Intn(8)
	g := &topo.Topology{}
	var nodes []topo.NodeID
	for i := 0; i < n; i++ {
		nodes = append(nodes, g.AddNode(topo.KindEdge, 0, i))
	}
	for i := 1; i < n; i++ {
		if _, err := g.AddLink(nodes[i], nodes[r.Intn(i)], 0.5+r.Float64()*4); err != nil {
			t.Fatal(err)
		}
	}
	for extra := 0; extra < n; extra++ {
		a, b := r.Intn(n), r.Intn(n)
		if a == b || g.LinkBetween(nodes[a], nodes[b]) != topo.NoLink {
			continue
		}
		if _, err := g.AddLink(nodes[a], nodes[b], 0.5+r.Float64()*4); err != nil {
			t.Fatal(err)
		}
	}
	var pool []topo.Path
	for i := 0; i < 2*n; i++ {
		a, b := r.Intn(n), r.Intn(n)
		if a == b {
			b = (b + 1) % n
		}
		if p, ok := g.ShortestPath(nodes[a], nodes[b], nil); ok {
			pool = append(pool, p)
		}
	}
	if len(pool) == 0 {
		return EngineStats{}, true
	}

	inc, full := New(g), New(g)
	full.forceFull = true
	both := [2]*Simulator{inc, full}
	run := func(s *Simulator, until float64) error {
		if closed && s == inc {
			return runClosed(s, until)
		}
		return s.Run(until)
	}
	nf := 2 + r.Intn(11)
	for i := 0; i < nf; i++ {
		bytes := 1 + r.Float64()*500
		arrival := r.Float64() * 5
		p := pool[r.Intn(len(pool))]
		if dbgDump != nil {
			dbgDump("add flow %d bytes=%.15g arrival=%.15g links=%v", i, bytes, arrival, p.Links)
		}
		for _, s := range both {
			if err := s.AddFlow(FlowID(i), bytes, arrival, p); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Mid-run storm: advance both sims together, then mutate one flow's
	// path identically in both. Flows done in either sim are left alone so
	// the two event streams stay comparable.
	stalled := make(map[FlowID]bool)
	now := 0.0
	for op := 0; op < 3+r.Intn(6); op++ {
		now += r.Float64() * 4
		for _, s := range both {
			if err := run(s, now); err != nil {
				t.Fatal(err)
			}
		}
		id := FlowID(r.Intn(nf))
		if inc.Flow(id).Done() || full.Flow(id).Done() {
			continue
		}
		kind := r.Intn(3)
		if dbgDump != nil {
			dbgDump("op at now=%.15g: kind=%d flow=%d (rate inc=%.15g full=%.15g rem inc=%.15g full=%.15g)",
				now, kind, id, inc.Flow(id).Rate(), full.Flow(id).Rate(), inc.Flow(id).Remaining(), full.Flow(id).Remaining())
		}
		switch kind {
		case 0: // reroute
			p := pool[r.Intn(len(pool))]
			if dbgDump != nil {
				dbgDump("  reroute flow %d -> links=%v", id, p.Links)
			}
			for _, s := range both {
				if err := s.SetPath(id, p); err != nil {
					t.Fatal(err)
				}
			}
			delete(stalled, id)
		case 1: // stall
			for _, s := range both {
				if err := s.SetPath(id, topo.Path{}); err != nil {
					t.Fatal(err)
				}
			}
			stalled[id] = true
		case 2: // recover a stalled flow, if any
			for sid := range stalled {
				if inc.Flow(sid).Done() || full.Flow(sid).Done() {
					continue
				}
				p := pool[r.Intn(len(pool))]
				if dbgDump != nil {
					dbgDump("  recover flow %d -> links=%v", sid, p.Links)
				}
				for _, s := range both {
					if err := s.SetPath(sid, p); err != nil {
						t.Fatal(err)
					}
				}
				delete(stalled, sid)
				break
			}
		}
	}
	// Recover every still-stalled flow so RunToCompletion can drain.
	for sid := range stalled {
		if inc.Flow(sid).Done() || full.Flow(sid).Done() {
			continue
		}
		p := pool[r.Intn(len(pool))]
		for _, s := range both {
			if err := s.SetPath(sid, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if dbgDump != nil {
		for _, s := range both {
			if err := run(s, now); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < nf; i++ {
			dbgDump("post-ops flow %d: rate inc=%.17g full=%.17g rem inc=%.17g full=%.17g",
				i, inc.Flow(FlowID(i)).Rate(), full.Flow(FlowID(i)).Rate(),
				inc.Flow(FlowID(i)).Remaining(), full.Flow(FlowID(i)).Remaining())
		}
		for l := 0; l < g.NumLinks(); l++ {
			dbgDump("link %d cap=%.17g", l, g.Link(topo.LinkID(l)).Capacity)
		}
	}
	for _, s := range both {
		if closed && s == inc {
			// Every stalled flow was recovered above, so a horizon far past
			// any finish time drains the engine.
			if err := runClosed(s, 1e12); err != nil {
				t.Fatal(err)
			}
			if left := s.ActiveCount() + s.PendingCount(); left != 0 {
				t.Fatalf("seed %d: forced-closed run left %d flows unfinished", seed, left)
			}
			continue
		}
		if err := s.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
	}

	ok := true
	for i := 0; i < nf; i++ {
		fi, ff := inc.Flow(FlowID(i)), full.Flow(FlowID(i))
		if dbgDump != nil {
			dbgDump("flow %d: inc=%.15g full=%.15g Δ=%g", i, fi.Finish(), ff.Finish(), fi.Finish()-ff.Finish())
		}
		tol := 64 * relEps * (math.Abs(ff.Finish()) + 1)
		if math.Abs(fi.Finish()-ff.Finish()) > tol {
			t.Errorf("seed %d flow %d: incremental finish %v, full finish %v (Δ=%g > %g)",
				seed, i, fi.Finish(), ff.Finish(), math.Abs(fi.Finish()-ff.Finish()), tol)
			ok = false
		}
	}
	return inc.Stats(), ok
}

func minCapOn(g *topo.Topology, p topo.Path) float64 {
	min := math.Inf(1)
	for _, l := range p.Links {
		if c := g.Link(l).Capacity; c < min {
			min = c
		}
	}
	return min
}
