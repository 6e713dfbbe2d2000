package sharebackup

import (
	"fmt"
	"runtime"
	"time"

	"sharebackup/internal/bench"
	"sharebackup/internal/failure"
	"sharebackup/internal/routing"
	"sharebackup/internal/topo"
)

// This file is the routing-core benchmark behind `sbbench -routing`: it
// measures the interned path store's hot-path contract (ECMP.PathFor as an
// allocation-free table lookup) against fresh ECMPPaths enumeration, plus
// reroute-storm path-lookup throughput with shared scratch state. Allocation
// in the steady state is a hard benchmark failure, not a gated metric — the
// trajectory gate skips zero-valued baselines, so drift away from zero must
// fail loudly here instead.

// RoutingBenchConfig parameterizes RoutingBench.
type RoutingBenchConfig struct {
	// K is the fat-tree parameter (default 16, the acceptance-criteria
	// scale: (k/2)^2 = 64 equal-cost paths per inter-pod pair).
	K int
	// Smoke shrinks the measurement loops to CI scale. Metrics stay per-op,
	// so smoke runs still gate against full-size baselines.
	Smoke bool
}

// RoutingBenchResult is the machine-readable routing benchmark output.
// All timing numbers are host-dependent; PathForAllocsOp is structural and
// must be zero.
type RoutingBenchResult struct {
	Experiment         string  `json:"experiment"`
	K                  int     `json:"k"`
	Smoke              bool    `json:"smoke,omitempty"`
	WarmedPairs        int     `json:"warmed_pairs"`
	InternedPaths      int     `json:"interned_paths"`
	Lookups            int64   `json:"lookups"`
	PathForNSOp        float64 `json:"pathfor_ns_op"`
	PathForAllocsOp    float64 `json:"pathfor_allocs_op"`
	FreshNSOp          float64 `json:"fresh_ns_op"`
	SpeedupVsFresh     float64 `json:"speedup_vs_fresh"`
	StormReroutes      int64   `json:"storm_reroutes"`
	StormLookupsPerSec float64 `json:"storm_lookups_per_sec"`
}

// RoutingBench measures ECMP.PathFor through the interned path store against
// the fresh-enumeration baseline it replaced, then a reroute storm (one
// failed aggregation switch, every crossing flow rerouted with shared
// Blocked/load/scratch state). It returns an error — a benchmark failure,
// exit 2 in sbbench — if the warm lookup path allocates or disagrees with
// fresh enumeration.
func RoutingBench(cfg RoutingBenchConfig) (*RoutingBenchResult, error) {
	if cfg.K == 0 {
		cfg.K = 16
	}
	ft, err := topo.NewFatTree(topo.Config{K: cfg.K, HostsPerEdge: 1})
	if err != nil {
		return nil, err
	}
	e := &routing.ECMP{FT: ft, Seed: 11}
	n := ft.NumHosts()
	// The measured pair set: a band of sources against every destination,
	// mixing intra-rack, intra-pod and inter-pod classes.
	srcs := 8
	if srcs > n {
		srcs = n
	}
	rounds := 200
	stormWaves := 12
	if cfg.Smoke {
		rounds = 20
		stormWaves = 2
	}
	type pair struct{ s, d int }
	var pairs []pair
	for s := 0; s < srcs; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				pairs = append(pairs, pair{s, d})
			}
		}
	}
	// Warm: intern every measured pair, verifying the exactness contract on
	// the way (cheap insurance that the store serves real ECMP paths).
	for _, p := range pairs {
		cached, err := ft.PathStore().Paths(p.s, p.d)
		if err != nil {
			return nil, err
		}
		fresh, err := ft.ECMPPaths(p.s, p.d)
		if err != nil {
			return nil, err
		}
		if len(cached) != len(fresh) {
			return nil, fmt.Errorf("routing bench: pair (%d,%d): %d interned paths, %d fresh", p.s, p.d, len(cached), len(fresh))
		}
		for i := range fresh {
			if len(cached[i].Links) != len(fresh[i].Links) {
				return nil, fmt.Errorf("routing bench: pair (%d,%d) path %d: interned and fresh paths differ", p.s, p.d, i)
			}
			for j := range fresh[i].Links {
				if cached[i].Links[j] != fresh[i].Links[j] {
					return nil, fmt.Errorf("routing bench: pair (%d,%d) path %d: interned and fresh paths differ", p.s, p.d, i)
				}
			}
		}
	}

	// Warm lookups: PathFor through the store.
	var sink topo.Path
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var lookups int64
	for r := 0; r < rounds; r++ {
		for i, p := range pairs {
			path, err := e.PathFor(p.s, p.d, uint64(r*len(pairs)+i))
			if err != nil {
				return nil, err
			}
			sink = path
			lookups++
		}
	}
	cachedWall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	_ = sink
	allocsOp := allocsPerEvent(&ms0, &ms1, lookups)
	if allocsOp > 0 {
		return nil, fmt.Errorf("routing bench: warm PathFor allocates %.0f times per lookup, want 0", allocsOp)
	}

	// Fresh-enumeration baseline: what PathFor cost before interning.
	freshRounds := rounds / 10
	if freshRounds == 0 {
		freshRounds = 1
	}
	start = time.Now()
	var freshLookups int64
	for r := 0; r < freshRounds; r++ {
		for i, p := range pairs {
			paths, err := ft.ECMPPaths(p.s, p.d)
			if err != nil {
				return nil, err
			}
			sink = paths[uint64(r*len(pairs)+i)%uint64(len(paths))]
			freshLookups++
		}
	}
	freshWall := time.Since(start)
	_ = sink

	// Reroute storm: fail the first aggregation switch of each pod in turn
	// and reroute every crossing flow, reusing one Blocked, one load vector
	// and one Scratch across the whole storm — the shape fig1c/transient's
	// applyScheme runs at trial time.
	load := routing.NewLinkLoad(ft.Topology)
	blocked := topo.NewBlocked()
	var scratch routing.Scratch
	var stormOps int64
	stormStart := time.Now()
	for w := 0; w < stormWaves; w++ {
		failure.BlockedInto(blocked, []topo.NodeID{ft.Agg(w%cfg.K, 0)}, nil)
		load.Reset()
		for i, p := range pairs {
			orig, err := e.PathFor(p.s, p.d, uint64(i))
			if err != nil {
				return nil, err
			}
			if blocked.PathOK(orig) {
				load.Add(orig, 1)
				continue
			}
			np, ok := routing.F10LocalReroute(ft, orig, blocked, &scratch)
			if !ok {
				np, ok = routing.GlobalOptimalReroute(ft, p.s, p.d, blocked, load)
			}
			if ok {
				load.Add(np, 1)
			}
			stormOps++
		}
	}
	stormWall := time.Since(stormStart)
	if stormOps == 0 {
		return nil, fmt.Errorf("routing bench: storm rerouted no flows")
	}

	st := ft.PathStore().Stats()
	return &RoutingBenchResult{
		Experiment:         "routing-core",
		K:                  cfg.K,
		Smoke:              cfg.Smoke,
		WarmedPairs:        st.Pairs,
		InternedPaths:      st.Paths,
		Lookups:            lookups,
		PathForNSOp:        float64(cachedWall.Nanoseconds()) / float64(lookups),
		PathForAllocsOp:    allocsOp,
		FreshNSOp:          float64(freshWall.Nanoseconds()) / float64(freshLookups),
		SpeedupVsFresh:     freshWall.Seconds() / float64(freshLookups) * float64(lookups) / cachedWall.Seconds(),
		StormReroutes:      stormOps,
		StormLookupsPerSec: float64(stormOps) / stormWall.Seconds(),
	}, nil
}

// GateMetrics flattens the result into the trajectory gate's metric map.
// Everything here is host wall-clock, so tolerances are wide: only
// order-of-magnitude losses (e.g. the lookup path re-growing an allocation)
// should trip the gate. pathfor_allocs_op is structurally zero and enforced
// as a hard error in RoutingBench; it is recorded for the bench file but the
// gate skips zero-valued baselines.
func (r *RoutingBenchResult) GateMetrics() map[string]bench.Metric {
	return map[string]bench.Metric{
		"routing.pathfor_ns_op": {
			Value: r.PathForNSOp, Unit: "ns", Better: "lower", Tolerance: 0.67,
		},
		"routing.pathfor_allocs_op": {
			Value: r.PathForAllocsOp, Unit: "allocs", Better: "lower", Tolerance: 0.25,
		},
		"routing.fresh_ns_op": {
			Value: r.FreshNSOp, Unit: "ns", Better: "lower", Tolerance: 1.0,
		},
		"routing.speedup_vs_fresh": {
			Value: r.SpeedupVsFresh, Unit: "x", Better: "higher", Tolerance: 0.5,
		},
		"routing.storm_lookups_per_sec": {
			Value: r.StormLookupsPerSec, Unit: "lookups/s", Better: "higher", Tolerance: 0.67,
		},
	}
}
