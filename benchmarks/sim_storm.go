package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"time"

	"sharebackup/internal/fluid"
	"sharebackup/internal/topo"
)

// stormParams sizes one reroute-storm instance: a k fat-tree with several
// hosts per edge switch, a seeded flow population (~85 % rack-local, ~15 %
// pod-local cross-rack, as in the repo's storm microbenchmarks), and waves
// of SetPath reroutes whose new paths come from the topology's PathStore.
type stormParams struct {
	K, HostsPerEdge, FlowsPerHost int
	Waves, WaveBatch              int
}

func defaultStorm() stormParams {
	return stormParams{K: 32, HostsPerEdge: 4, FlowsPerHost: 20, Waves: 8, WaveBatch: 512}
}

type stormFlow struct {
	bytes, arrival float64
	path           topo.Path
}

type stormReroute struct {
	id   fluid.FlowID
	path topo.Path
}

type stormWave struct {
	at       float64
	reroutes []stormReroute
}

// stormInstance is one generated storm: the topology it runs on and its
// schedule.
type stormInstance struct {
	ft       *topo.FatTree
	flows    []stormFlow
	waves    []stormWave
	interned int // paths the schedule made the PathStore intern
}

// buildStorm generates one storm instance from rng on a fresh topology, so
// its cost (topology construction plus the PathStore interning every pair
// the schedule touches) is a clean set-up sample.
func buildStorm(p stormParams, rng *rand.Rand, tr *tracer, parent int) (*stormInstance, error) {
	sp := tr.begin("topo.fattree_build", parent, -1)
	ft, err := topo.NewFatTree(topo.Config{K: p.K, HostsPerEdge: p.HostsPerEdge, HostCapacity: 40})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("topo.pathstore_schedule", parent, -1)
	defer tr.end(sp)
	store := ft.PathStore()
	n := ft.NumHosts()
	per := p.HostsPerEdge
	perPod := (p.K / 2) * per
	inst := &stormInstance{ft: ft, flows: make([]stormFlow, 0, n*p.FlowsPerHost)}
	var multipath []fluid.FlowID
	dsts := make([]int, 0, n*p.FlowsPerHost)
	for i := 0; i < n*p.FlowsPerHost; i++ {
		src := i % n
		var dst int
		if rng.Float64() < 0.85 {
			base := (src / per) * per
			for dst = base + rng.Intn(per); dst == src; {
				dst = base + rng.Intn(per)
			}
		} else {
			base := (src / perPod) * perPod
			for dst = base + rng.Intn(perPod); dst/per == src/per; {
				dst = base + rng.Intn(perPod)
			}
		}
		paths, err := store.Paths(src, dst)
		if err != nil {
			return nil, err
		}
		inst.flows = append(inst.flows, stormFlow{
			bytes:   500 + rng.Float64()*1500,
			arrival: rng.Float64() * 10,
			path:    paths[rng.Intn(len(paths))],
		})
		dsts = append(dsts, dst)
		if len(paths) > 1 {
			multipath = append(multipath, fluid.FlowID(i))
		}
	}
	if len(multipath) == 0 {
		return nil, fmt.Errorf("storm: no multipath flows to reroute")
	}
	inst.waves = make([]stormWave, p.Waves)
	for w := range inst.waves {
		inst.waves[w].at = 2 + float64(w)
		for b := 0; b < p.WaveBatch; b++ {
			id := multipath[rng.Intn(len(multipath))]
			paths, err := store.Paths(int(id)%n, dsts[id])
			if err != nil {
				return nil, err
			}
			inst.waves[w].reroutes = append(inst.waves[w].reroutes, stormReroute{id: id, path: paths[rng.Intn(len(paths))]})
		}
	}
	inst.interned = store.Stats().Paths
	return inst, nil
}

// stormRun is what one replay of a storm instance yields.
type stormRun struct {
	AddFlow  time.Duration // time inside the AddFlow loop
	SetPath  time.Duration // time inside the SetPath loops
	Run      time.Duration // time inside Run and RunToCompletion
	WaveMS   []float64     // per wave: its SetPath batch plus the Run to one second past it
	Added    int64         // flows added
	Rerouted int64         // reroutes applied (flows still in flight)
	Stats    fluid.EngineStats
	Mallocs  uint64
	FCTHash  uint64 // FNV-1a over every flow's finish time, bit for bit
}

// inside is the time spent in the simulator's public functions.
func (r *stormRun) inside() time.Duration { return r.AddFlow + r.SetPath + r.Run }

// addStats accumulates one simulator's counters into dst.
func addStats(dst *fluid.EngineStats, s fluid.EngineStats) {
	dst.Recomputes += s.Recomputes
	dst.FullRecomputes += s.FullRecomputes
	dst.RecomputeWork += s.RecomputeWork
	dst.HeapPops += s.HeapPops
	dst.RipplePasses += s.RipplePasses
	dst.RippleExpansions += s.RippleExpansions
	dst.RippleFallbacks += s.RippleFallbacks
	dst.ParallelPasses += s.ParallelPasses
	dst.Components += s.Components
}

// events is the storm's unit of work: flows added, reroutes applied and
// finish events the engine consumed.
func (r *stormRun) events() int64 { return r.Added + r.Rerouted + r.Stats.HeapPops }

// replayStorm drives a fluid.Simulator through the instance: add every flow,
// run to the first wave, then per wave apply its reroutes and run one
// simulated second on, and finally drain. AddFlow and SetPath take well under
// a microsecond, so each loop is one span covering its calls.
func replayStorm(inst *stormInstance, workers int, tr *tracer, parent int) (*stormRun, error) {
	sim := fluid.New(inst.ft.Topology)
	sim.SetWorkers(workers)
	res := &stormRun{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	t0 := time.Now()
	sp := tr.begin("fluid.addflow", parent, -1)
	for i, f := range inst.flows {
		if err := sim.AddFlow(fluid.FlowID(i), f.bytes, f.arrival, f.path); err != nil {
			tr.end(sp)
			return nil, err
		}
	}
	tr.endN(sp, len(inst.flows))
	res.AddFlow = time.Since(t0)
	res.Added = int64(len(inst.flows))

	run := func(until float64) error {
		t := time.Now()
		sp := tr.begin("fluid.run", parent, -1)
		var err error
		if math.IsInf(until, 1) {
			err = sim.RunToCompletion()
		} else {
			err = sim.Run(until)
		}
		tr.end(sp)
		res.Run += time.Since(t)
		return err
	}
	if err := run(inst.waves[0].at); err != nil {
		return nil, err
	}
	for _, wv := range inst.waves {
		tw := time.Now()
		applied := 0
		sp := tr.begin("fluid.setpath", parent, -1)
		for _, rr := range wv.reroutes {
			if sim.Flow(rr.id).Done() {
				continue
			}
			if err := sim.SetPath(rr.id, rr.path); err != nil {
				tr.end(sp)
				return nil, err
			}
			applied++
		}
		tr.endN(sp, applied)
		res.SetPath += time.Since(tw)
		res.Rerouted += int64(applied)
		if err := run(wv.at + 1); err != nil {
			return nil, err
		}
		res.WaveMS = append(res.WaveMS, ms(time.Since(tw)))
	}
	if err := run(math.Inf(1)); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	res.Mallocs = ms1.Mallocs - ms0.Mallocs
	res.Stats = sim.Stats()

	h := fnv.New64a()
	var buf [8]byte
	for i := range inst.flows {
		f := sim.Flow(fluid.FlowID(i))
		if !f.Done() {
			return nil, fmt.Errorf("storm: flow %d never finished", i)
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f.Finish()))
		h.Write(buf[:])
	}
	res.FCTHash = h.Sum64()
	return res, nil
}
