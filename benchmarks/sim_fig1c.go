package main

import (
	"fmt"
	"math"
	"math/rand"

	"sharebackup"
	"sharebackup/internal/coflow"
	"sharebackup/internal/failure"
	"sharebackup/internal/fluid"
	"sharebackup/internal/routing"
	"sharebackup/internal/topo"
)

// fig1cMaxFlows pins the study set. The paper's coflow generator is heavy-
// tailed (lognormal widths clipped at the rack count), so the cost of one
// 40-coflow window varies a hundredfold with its seed — from 0.15 s to 35 s
// on the sizing VM, and by a factor of two even between windows with the
// same number of flows. No ten benchmark seeds would agree within any useful
// bound on inputs drawn that way, so the studies are the first sub-seeds
// whose window routes at most this many flows, every run does the same work,
// and --seed only decides the order the studies run in. Heavier windows are
// left to the paper-scale run (sbexperiments -run fig1c).
const fig1cMaxFlows = 1200

// fig1cConfig is one study of the set: the paper's Fig. 1c at k=16 with 40
// coflows in one 5-minute window and one node and one link failure scenario,
// i.e. 9 fluid replays (3 architectures x (1 baseline + 2 scenarios)). Two
// scenarios rather than the default twelve keep a study near a third of a
// second, so a run fits forty of them and the tail percentile has samples
// behind it.
func fig1cConfig(seed int64, workers int) sharebackup.Fig1cConfig {
	return sharebackup.Fig1cConfig{K: 16, Seed: seed, Coflows: 40, Scenarios: 2, Windows: 1, Workers: workers}
}

// fig1cReplays is how many fluid replays one study runs.
const fig1cReplays = 9

// stagedStats counts what the staged re-enactment did, beyond its spans.
type stagedStats struct {
	Flows       int // routed flows in the window
	Reroutes    int // affected flows handed to a rerouting scheme
	RerouteHits int // of which a path was found
	Events      int64
	Stats       fluid.EngineStats
}

type routedFlow struct {
	coflow int
	path   topo.Path
}

// stagedFig1c re-enacts sharebackup.Fig1c stage by stage through the layers'
// public functions — coflow.Generate, ECMP routing, the two rerouting
// schemes, and a fluid replay per baseline and scenario — with a span around
// each stage under one "scenario" parent per replay. It is serial, so it
// compares with Fig1c at Workers=1, and it returns the same result value, so
// its fingerprint must equal Fig1c's: the check that the per-layer numbers
// describe the pipeline the end-to-end number ran.
func stagedFig1c(cfg sharebackup.Fig1cConfig, tr *tracer) ([]sharebackup.ArchSlowdowns, stagedStats, error) {
	var st stagedStats
	const window, oversub = 300.0, 10.0
	root := tr.begin("bench.study", 0, int(cfg.Seed))
	defer tr.end(root)

	build := func(ab bool) (*topo.FatTree, error) {
		sp := tr.begin("topo.fattree_build_k16", root, -1)
		defer tr.end(sp)
		return topo.NewFatTree(topo.Config{K: cfg.K, HostsPerEdge: 1, HostCapacity: oversub * float64(cfg.K/2), AB: ab})
	}
	ft, err := build(false)
	if err != nil {
		return nil, st, err
	}
	f10, err := build(true)
	if err != nil {
		return nil, st, err
	}

	sp := tr.begin("coflow.generate", root, -1)
	full, err := coflow.Generate(coflow.GenConfig{
		Racks: ft.NumHosts(), NumCoflows: cfg.Coflows * cfg.Windows,
		Duration: window * float64(cfg.Windows), Seed: cfg.Seed,
	})
	var windows []*coflow.Trace
	if err == nil {
		windows, err = full.Partition(window)
	}
	tr.end(sp)
	if err != nil {
		return nil, st, err
	}
	kept := windows[:0]
	for _, w := range windows {
		if len(w.Coflows) > 0 {
			kept = append(kept, w)
		}
	}
	windows = kept
	if len(windows) == 0 {
		return nil, st, fmt.Errorf("staged fig1c: empty trace")
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 99))
	inj := failure.NewInjector(ft, cfg.Seed+1)
	nodeCands, linkCands := inj.ReroutableSwitches(), inj.FabricLinks()
	var scenarios []failure.Scenario
	for i := 0; i < cfg.Scenarios; i++ {
		if i%2 == 0 {
			scenarios = append(scenarios, failure.Scenario{Node: nodeCands[rng.Intn(len(nodeCands))], Link: topo.NoLink, Repair: window})
		} else {
			scenarios = append(scenarios, failure.Scenario{Node: topo.None, Link: linkCands[rng.Intn(len(linkCands))], Repair: window})
		}
	}

	archs := []struct {
		name string
		ft   *topo.FatTree
	}{{"fat-tree", ft}, {"F10", f10}, {"ShareBackup", ft}}
	usedWindows := len(windows)
	if cfg.Scenarios < usedWindows {
		usedWindows = cfg.Scenarios
	}
	var out []sharebackup.ArchSlowdowns
	for ai, a := range archs {
		flows := make([][]routedFlow, usedWindows)
		baseline := make([][]float64, usedWindows)
		for wi := 0; wi < usedWindows; wi++ {
			scen := tr.begin("bench.scenario", root, ai*1000+wi)
			flows[wi], err = stagedRoute(a.ft, windows[wi], cfg.Seed, tr, scen)
			if err == nil {
				baseline[wi], err = stagedReplay(a.ft, windows[wi], flows[wi], tr, scen, &st)
			}
			tr.end(scen)
			if err != nil {
				return nil, st, fmt.Errorf("staged fig1c: %s window %d: %w", a.name, wi, err)
			}
			if ai == 0 {
				st.Flows += len(flows[wi])
			}
		}
		res := sharebackup.ArchSlowdowns{Name: a.name}
		for si, sc := range scenarios {
			wi := si % len(windows)
			scen := tr.begin("bench.scenario", root, ai*1000+100+si)
			blocked := sc.Blocked()
			rerouted, disconnected := stagedReroute(a.ft, flows[wi], blocked, ai, tr, scen, &st)
			cct, err := stagedReplay(a.ft, windows[wi], rerouted, tr, scen, &st)
			tr.end(scen)
			if err != nil {
				return nil, st, fmt.Errorf("staged fig1c: %s scenario %d: %w", a.name, si, err)
			}
			for ci := range windows[wi].Coflows {
				hit := false
				for _, f := range flows[wi] {
					if f.coflow == ci && !blocked.PathOK(f.path) {
						hit = true
						break
					}
				}
				switch {
				case !hit:
				case disconnected[ci] || math.IsInf(cct[ci], 1):
					res.Disconnected++
				case baseline[wi][ci] > 0:
					res.Slowdowns = append(res.Slowdowns, cct[ci]/baseline[wi][ci])
				}
			}
		}
		out = append(out, res)
	}
	return out, st, nil
}

// stagedRoute assigns every flow of the window its ECMP path (Fig1c's
// routeTrace), timing the PathFor calls as one batch.
func stagedRoute(ft *topo.FatTree, trc *coflow.Trace, seed int64, tr *tracer, parent int) ([]routedFlow, error) {
	racks := ft.NumHosts()
	ecmp := &routing.ECMP{FT: ft, Seed: uint64(seed)}
	var out []routedFlow
	sp := tr.begin("routing.pathfor", parent, -1)
	flowID := uint64(0)
	for ci := range trc.Coflows {
		for _, f := range trc.Coflows[ci].Flows {
			src, dst := f.Src%racks, f.Dst%racks
			flowID++
			if src == dst {
				continue
			}
			p, err := ecmp.PathFor(src, dst, flowID)
			if err != nil {
				tr.end(sp)
				return nil, err
			}
			out = append(out, routedFlow{coflow: ci, path: p})
		}
	}
	tr.endN(sp, len(out))
	return out, nil
}

// stagedReroute gives every flow crossing the failure its post-failure path
// under architecture ai's scheme (Fig1c's applyScheme): global-optimal
// rerouting for the fat-tree, F10 local rerouting with a global fallback,
// nothing for ShareBackup, whose replacement restores the topology.
func stagedReroute(ft *topo.FatTree, flows []routedFlow, blocked *topo.Blocked, ai int, tr *tracer, parent int, st *stagedStats) ([]routedFlow, map[int]bool) {
	disconnected := make(map[int]bool)
	if ai == 2 {
		return flows, disconnected
	}
	out := make([]routedFlow, len(flows))
	load := routing.NewLinkLoad(ft.Topology)
	var scratch routing.Scratch
	for _, f := range flows {
		if blocked.PathOK(f.path) {
			load.Add(f.path, 1)
		}
	}
	global := func(src, dst int) (topo.Path, bool) {
		sp := tr.begin("routing.global_reroute", parent, -1)
		defer tr.end(sp)
		return routing.GlobalOptimalReroute(ft, src, dst, blocked, load)
	}
	for i, f := range flows {
		out[i] = f
		if blocked.PathOK(f.path) {
			continue
		}
		st.Reroutes++
		src := ft.Node(f.path.Nodes[0]).Index
		dst := ft.Node(f.path.Nodes[len(f.path.Nodes)-1]).Index
		var np topo.Path
		var ok bool
		if ai == 0 {
			np, ok = global(src, dst)
		} else {
			sp := tr.begin("routing.f10_reroute", parent, -1)
			np, ok = routing.F10LocalReroute(ft, f.path, blocked, &scratch)
			tr.end(sp)
			if !ok {
				np, ok = global(src, dst)
			}
		}
		if !ok {
			out[i].path = topo.Path{}
			disconnected[f.coflow] = true
			continue
		}
		st.RerouteHits++
		out[i].path = np
		load.Add(np, 1)
	}
	return out, disconnected
}

// stagedReplay runs the fluid simulator over the routed flows and returns
// each coflow's completion time (Fig1c's simulateCCT): arrivals and
// completions only, no SetPath.
func stagedReplay(ft *topo.FatTree, trc *coflow.Trace, flows []routedFlow, tr *tracer, parent int, st *stagedStats) ([]float64, error) {
	sim := fluid.New(ft.Topology)
	type meta struct {
		coflow  int
		arrival float64
	}
	metas := make([]meta, 0, len(flows))
	racks := ft.NumHosts()
	idx := 0
	sp := tr.begin("fluid.fig1c_addflow", parent, -1)
	for ci := range trc.Coflows {
		c := &trc.Coflows[ci]
		for _, f := range c.Flows {
			if f.Src%racks == f.Dst%racks {
				continue
			}
			if idx >= len(flows) {
				tr.end(sp)
				return nil, fmt.Errorf("flow list shorter than trace")
			}
			if err := sim.AddFlow(fluid.FlowID(idx), f.Bytes, c.Arrival, flows[idx].path); err != nil {
				tr.end(sp)
				return nil, err
			}
			metas = append(metas, meta{coflow: ci, arrival: c.Arrival})
			idx++
		}
	}
	tr.endN(sp, idx)
	if idx != len(flows) {
		return nil, fmt.Errorf("flow list longer than trace")
	}
	run := func(until float64) error {
		sp := tr.begin("fluid.fig1c_run", parent, -1)
		defer tr.end(sp)
		return sim.Run(until)
	}
	horizon := trc.Duration() + 1
	if err := run(horizon); err != nil {
		return nil, err
	}
	for iter := 0; sim.ActiveCount() > 0 || sim.PendingCount() > 0; iter++ {
		if iter > 10000 {
			break
		}
		allStalled := true
		for i := range metas {
			if f := sim.Flow(fluid.FlowID(i)); !f.Done() && !f.Stalled() {
				allStalled = false
				break
			}
		}
		if allStalled && sim.PendingCount() == 0 {
			break
		}
		horizon *= 2
		if err := run(horizon); err != nil {
			return nil, err
		}
	}
	cct := make([]float64, len(trc.Coflows))
	for i, m := range metas {
		f := sim.Flow(fluid.FlowID(i))
		if !f.Done() {
			cct[m.coflow] = math.Inf(1)
			continue
		}
		if life := f.Finish() - m.arrival; life > cct[m.coflow] {
			cct[m.coflow] = life
		}
	}
	s := sim.Stats()
	st.Events += int64(idx) + s.HeapPops
	addStats(&st.Stats, s)
	return cct, nil
}
