package sharebackup

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sharebackup/internal/coflow"
	"sharebackup/internal/failure"
	"sharebackup/internal/fluid"
	"sharebackup/internal/metrics"
	"sharebackup/internal/routing"
	"sharebackup/internal/sweep"
	"sharebackup/internal/topo"
)

// Fig1cConfig parameterizes the Figure 1(c) reproduction: the CDF of coflow
// completion time (CCT) slowdown under a single node or link failure, for
// fat-tree with global-optimal rerouting, F10 with local rerouting, and
// ShareBackup with hardware replacement.
type Fig1cConfig struct {
	// K is the fat-tree parameter. Default 8 (a 32-rack study that runs
	// in seconds); pass 16 for the paper's scale.
	K int
	// Seed drives workload generation, ECMP hashing and scenario
	// sampling.
	Seed int64
	// Coflows is the number of coflows in each fig1cWindow-second window.
	// Default 30.
	Coflows int
	// Scenarios is the number of single-failure scenarios to run (half
	// node failures, half link failures). Default 12.
	Scenarios int
	// Oversub is the edge oversubscription ratio. Default 10.
	Oversub float64
	// Windows is the number of trace windows (the paper partitions its
	// one-hour trace into 5-minute windows and runs one failure per
	// window). Scenarios are spread round-robin over the windows.
	// Default 1.
	Windows int
	// Workers sizes the sweep worker pool the window baselines and
	// scenario replays are sharded over (0 = GOMAXPROCS). The replays are
	// deterministic functions of their inputs, so results are identical
	// for any worker count.
	Workers int
}

// fig1cWindow is the trace window length in seconds: the paper partitions
// its trace into 5-minute windows.
const fig1cWindow = 300.0

func (c *Fig1cConfig) setDefaults() {
	if c.K == 0 {
		c.K = 8
	}
	if c.Coflows == 0 {
		c.Coflows = 30
	}
	if c.Scenarios == 0 {
		c.Scenarios = 12
	}
	if c.Oversub == 0 {
		c.Oversub = 10
	}
	if c.Windows == 0 {
		c.Windows = 1
	}
}

// check rejects a bad field by name; setDefaults has run, so a zero field
// holds its default.
func (c *Fig1cConfig) check() error {
	var errs []error
	for _, f := range [...]struct {
		name string
		v    int
	}{{"Coflows", c.Coflows}, {"Scenarios", c.Scenarios}, {"Windows", c.Windows}} {
		if f.v < 0 {
			errs = append(errs, fieldError("Fig1cConfig", f.name, f.v, "not be negative"))
		}
	}
	if !(c.Oversub >= 0) || math.IsInf(c.Oversub, 0) {
		errs = append(errs, fieldError("Fig1cConfig", "Oversub", c.Oversub, "be finite and not negative"))
	}
	return errors.Join(errs...)
}

// fieldError names a config field whose value breaks its rule.
func fieldError(cfg, field string, v any, rule string) error {
	return fmt.Errorf("sharebackup: %s.%s is %v; it must %s", cfg, field, v, rule)
}

// ArchSlowdowns is one architecture's curve in Figure 1(c).
type ArchSlowdowns struct {
	Name string
	// Slowdowns holds CCT-with-failure / CCT-without-failure for every
	// affected coflow across all scenarios.
	Slowdowns []float64
	// Disconnected counts affected coflows that could not complete at
	// all under the architecture's recovery scheme (infinite slowdown;
	// excluded from Slowdowns).
	Disconnected int
}

// CDF returns the slowdown distribution.
func (a *ArchSlowdowns) CDF() *metrics.CDF { return metrics.NewCDF(a.Slowdowns) }

// rerouteScheme is how an architecture reacts to a failure.
type rerouteScheme int

const (
	schemeGlobalOptimal rerouteScheme = iota // fat-tree baseline
	schemeF10Local                           // F10 local 3-hop rerouting
	schemeShareBackup                        // hardware replacement
)

// Fig1c runs the CCT-slowdown study and returns one entry per architecture:
// fat-tree (global-optimal rerouting), F10 (local rerouting), and
// ShareBackup.
func Fig1c(cfg Fig1cConfig) ([]ArchSlowdowns, error) {
	cfg.setDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	in, err := newFig1cInputs(cfg)
	if err != nil {
		return nil, err
	}
	return in.run(cfg)
}

// fig1cInputs is everything a study replays: the two topologies, the trace
// windows, and the failure scenarios (scenario i lands on window i mod
// len(windows)).
type fig1cInputs struct {
	ft, f10   *topo.FatTree
	windows   []*coflow.Trace
	scenarios []failure.Scenario
}

// newFig1cInputs builds the study's inputs from cfg (defaults already set).
func newFig1cInputs(cfg Fig1cConfig) (*fig1cInputs, error) {
	// Topologies: fat-tree for the fat-tree and ShareBackup runs
	// (ShareBackup's logical topology IS the fat-tree, restored exactly
	// after replacement), AB fat-tree for F10.
	ft, err := topo.NewFatTree(topo.Config{
		K: cfg.K, HostsPerEdge: 1, HostCapacity: cfg.Oversub * float64(cfg.K/2),
	})
	if err != nil {
		return nil, err
	}
	f10, err := topo.NewFatTree(topo.Config{
		K: cfg.K, HostsPerEdge: 1, HostCapacity: cfg.Oversub * float64(cfg.K/2), AB: true,
	})
	if err != nil {
		return nil, err
	}

	// One long trace partitioned into windows, exactly as the paper
	// treats its one-hour trace.
	full, err := coflow.Generate(coflow.GenConfig{
		Racks:      ft.NumHosts(),
		NumCoflows: cfg.Coflows * cfg.Windows,
		Duration:   fig1cWindow * float64(cfg.Windows),
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	windows, err := full.Partition(fig1cWindow)
	if err != nil {
		return nil, err
	}
	// Drop empty windows (possible at small coflow counts).
	kept := windows[:0]
	for _, w := range windows {
		if len(w.Coflows) > 0 {
			kept = append(kept, w)
		}
	}
	windows = kept
	if len(windows) == 0 {
		return nil, fmt.Errorf("sharebackup: Fig1c: empty trace")
	}

	// Failure scenarios: single node (agg/core) and single link failures,
	// sampled uniformly. Scenarios are shared across architectures (the
	// same element index is failed in ft and f10 — node/link IDs are
	// structurally aligned between the two builds).
	rng := rand.New(rand.NewSource(cfg.Seed + 99))
	inj := failure.NewInjector(ft, cfg.Seed+1)
	nodeCands := inj.ReroutableSwitches()
	linkCands := inj.FabricLinks()
	var scenarios []failure.Scenario
	for i := 0; i < cfg.Scenarios; i++ {
		if i%2 == 0 {
			scenarios = append(scenarios, failure.Scenario{
				Node: nodeCands[rng.Intn(len(nodeCands))], Link: topo.NoLink, Repair: fig1cWindow,
			})
		} else {
			scenarios = append(scenarios, failure.Scenario{
				Node: topo.None, Link: linkCands[rng.Intn(len(linkCands))], Repair: fig1cWindow,
			})
		}
	}

	return &fig1cInputs{ft: ft, f10: f10, windows: windows, scenarios: scenarios}, nil
}

// run replays the windows under every scenario and architecture.
func (in *fig1cInputs) run(cfg Fig1cConfig) ([]ArchSlowdowns, error) {
	windows, scenarios := in.windows, in.scenarios
	type arch struct {
		name   string
		ft     *topo.FatTree
		scheme rerouteScheme
	}
	archs := []arch{
		{"fat-tree", in.ft, schemeGlobalOptimal},
		{"F10", in.f10, schemeF10Local},
		{"ShareBackup", in.ft, schemeShareBackup},
	}
	// Only windows a scenario actually lands on need a baseline.
	usedWindows := len(windows)
	if len(scenarios) < usedWindows {
		usedWindows = len(scenarios)
	}

	// Per-window routed flows and no-failure baselines are a function of the
	// topology alone, so ShareBackup — whose logical topology is the
	// fat-tree's own *topo.FatTree — reuses the fat-tree's.
	type winPrep struct {
		flows    []flowRef
		baseline []float64
	}
	prepsOf := make(map[*topo.FatTree][]winPrep)

	var out []ArchSlowdowns
	for _, a := range archs {
		// Phase 1: one sweep shard per window. The shards are deterministic
		// (the only randomness, ECMP hashing, is keyed by cfg.Seed), so the
		// sweep's substream seeds are unused.
		preps, ok := prepsOf[a.ft]
		if !ok {
			var err error
			preps, err = sweep.Run(context.Background(), sweep.Config{
				Name: "fig1c-" + a.name + "-baseline", Shards: usedWindows,
				Seed: cfg.Seed, Workers: cfg.Workers,
			}, func(_ context.Context, sh sweep.Shard) (winPrep, error) {
				wi := sh.Index
				flows, err := routeTrace(a.ft, windows[wi], cfg.Seed)
				if err != nil {
					return winPrep{}, err
				}
				baseline, err := simulateCCT(a.ft, windows[wi], flows)
				if err != nil {
					return winPrep{}, fmt.Errorf("sharebackup: %s window %d baseline: %w", a.name, wi, err)
				}
				return winPrep{flows: flows, baseline: baseline}, nil
			})
			if err != nil {
				return nil, err
			}
			prepsOf[a.ft] = preps
		}

		// Phase 2: one sweep shard per failure scenario, replaying the
		// window's coflows under the architecture's recovery scheme. The
		// replay is a deterministic function of (topology, trace, routes), so
		// a scenario that moves no route — ShareBackup always, any scheme when
		// no flow crosses the failed element — has the baseline's completion
		// times and is not simulated again.
		type scenarioOut struct {
			Slowdowns    []float64
			Disconnected int
		}
		outs, err := sweep.Run(context.Background(), sweep.Config{
			Name: "fig1c-" + a.name + "-scenarios", Shards: len(scenarios),
			Seed: cfg.Seed, Workers: cfg.Workers,
		}, func(_ context.Context, sh sweep.Shard) (scenarioOut, error) {
			si := sh.Index
			wi := si % len(windows)
			tr := windows[wi]
			flows, baseline := preps[wi].flows, preps[wi].baseline
			rerouted, hit, moved := applyScheme(a.ft, flows, scenarios[si].Blocked(), a.scheme)
			cct := baseline
			if moved {
				var err error
				if cct, err = simulateCCT(a.ft, tr, rerouted); err != nil {
					return scenarioOut{}, fmt.Errorf("sharebackup: %s scenario: %w", a.name, err)
				}
			}
			// A coflow is affected when one of its original paths crosses
			// the failure, disconnected when such a flow found no new path.
			affected := make([]bool, len(tr.Coflows))
			disconnected := make([]bool, len(tr.Coflows))
			for i, f := range flows {
				if hit[i] {
					affected[f.coflow] = true
					if len(rerouted[i].path.Nodes) == 0 {
						disconnected[f.coflow] = true
					}
				}
			}
			var so scenarioOut
			for ci := range tr.Coflows {
				if !affected[ci] {
					continue
				}
				if disconnected[ci] || math.IsInf(cct[ci], 1) {
					so.Disconnected++
					continue
				}
				if baseline[ci] > 0 {
					so.Slowdowns = append(so.Slowdowns, cct[ci]/baseline[ci])
				}
			}
			return so, nil
		})
		if err != nil {
			return nil, err
		}
		res := ArchSlowdowns{Name: a.name}
		for _, so := range outs {
			res.Slowdowns = append(res.Slowdowns, so.Slowdowns...)
			res.Disconnected += so.Disconnected
		}
		out = append(out, res)
	}
	return out, nil
}

// applyScheme produces each flow's post-failure path under the
// architecture's recovery scheme (an empty path for a flow left with no
// route), and reports per flow whether its original path crosses the failure
// and overall whether any route moved. When none did, the returned flows are
// the input slice.
func applyScheme(ft *topo.FatTree, flows []flowRef, blocked *topo.Blocked, scheme rerouteScheme) (out []flowRef, hit []bool, moved bool) {
	hit = make([]bool, len(flows))
	crossed := false
	for i, f := range flows {
		if !blocked.PathOK(f.path) {
			hit[i] = true
			crossed = true
		}
	}
	// ShareBackup's replacement restores the exact logical topology: every
	// flow keeps its path, at full capacity. (The sub-second recovery window
	// is negligible against 5-minute coflows; the latency experiment
	// quantifies it separately.)
	if !crossed || scheme == schemeShareBackup {
		return flows, hit, false
	}
	out = make([]flowRef, len(flows))
	load := routing.NewLinkLoad(ft.Topology)
	var scratch routing.Scratch // one avoid set for the whole storm
	for i, f := range flows {
		if !hit[i] {
			load.Add(f.path, 1)
		}
	}
	for i, f := range flows {
		out[i] = f
		if !hit[i] {
			continue
		}
		src := hostIndexOf(ft, f.path.Nodes[0])
		dst := hostIndexOf(ft, f.path.Nodes[len(f.path.Nodes)-1])
		var np topo.Path
		var ok bool
		switch scheme {
		case schemeGlobalOptimal:
			np, ok = routing.GlobalOptimalReroute(ft, src, dst, blocked, load)
		case schemeF10Local:
			np, ok = routing.F10LocalReroute(ft, f.path, blocked, &scratch)
			if !ok {
				// F10 falls back to pushback (upstream) rerouting
				// when no local detour exists.
				np, ok = routing.GlobalOptimalReroute(ft, src, dst, blocked, load)
			}
		}
		if !ok {
			out[i].path = topo.Path{} // stalled: disconnected
			continue
		}
		out[i].path = np
		load.Add(np, 1)
	}
	return out, hit, true
}

// hostIndexOf maps a host node back to its global host index.
func hostIndexOf(ft *topo.FatTree, id topo.NodeID) int {
	return ft.Node(id).Index
}

// simulateCCT runs the fluid simulator over the routed flows and returns
// each coflow's completion time (max flow lifetime). Coflows whose flows
// cannot all finish get +Inf.
func simulateCCT(ft *topo.FatTree, tr *coflow.Trace, flows []flowRef) ([]float64, error) {
	sim := fluid.New(ft.Topology)
	// Flow IDs are dense over the routed flow list; byte sizes come from
	// re-walking the trace in the same order as routeTrace.
	type meta struct {
		coflow  int
		arrival float64
	}
	metas := make([]meta, 0, len(flows))
	racks := ft.NumHosts()
	idx := 0
	for ci := range tr.Coflows {
		c := &tr.Coflows[ci]
		for _, f := range c.Flows {
			if f.Src%racks == f.Dst%racks {
				continue
			}
			if idx >= len(flows) {
				return nil, fmt.Errorf("sharebackup: flow list shorter than trace")
			}
			if err := sim.AddFlow(fluid.FlowID(idx), f.Bytes, c.Arrival, flows[idx].path); err != nil {
				return nil, err
			}
			metas = append(metas, meta{coflow: ci, arrival: c.Arrival})
			idx++
		}
	}
	if idx != len(flows) {
		return nil, fmt.Errorf("sharebackup: flow list longer than trace")
	}
	// Run(+Inf) returns once only permanently stalled flows remain; they
	// never finish, and their coflows' CCT is +Inf below.
	if err := sim.Run(math.Inf(1)); err != nil {
		return nil, err
	}
	cct := make([]float64, len(tr.Coflows))
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
	return cct, nil
}
