package fluid

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"sharebackup/internal/topo"
)

// Storm benchmarks exercise the engine at the scales the ROADMAP targets:
// k=16 and k=32 fabrics carrying 10k+ staggered flows with mid-run reroute
// storms. Traffic is ~85% rack-local — the realistic skew, and the regime
// where component scoping pays (all-to-all traffic is one link-sharing
// component, so scoping degenerates to full passes by design). Each
// benchmark has an Incremental and a Full variant so the speedup and the
// recompute-work ratio are directly readable from `go test -bench Storm`;
// k=48 is incremental only, since at that scale the reference engine's
// quadratic pass cost is the thing the incremental engine exists to avoid.
//
//	go test -bench 'BenchmarkStorm' -benchtime 1x ./internal/fluid

type stormAdd struct {
	id      FlowID
	bytes   float64
	arrival float64
	path    topo.Path
}

type stormWave struct {
	at       float64
	reroutes []stormAdd // id + replacement path; bytes/arrival unused
}

// buildStormWorkload is the storm the microbenchmarks and tier-1 tests share:
// three waves of 256 reroutes at t = 4, 6, 8.
func buildStormWorkload(tb testing.TB, k, hostsPerEdge, flowsPerHost int) (*topo.FatTree, []stormAdd, []stormWave) {
	tb.Helper()
	return buildStormWaves(tb, k, hostsPerEdge, flowsPerHost, 3, 256, 4, 2)
}

// buildStormWaves generates the deterministic flow set and nWaves reroute
// waves of batch reroutes each, at t = at0, at0+step, ..., once per benchmark;
// the timed loop only replays them.
func buildStormWaves(tb testing.TB, k, hostsPerEdge, flowsPerHost, nWaves, batch int, at0, step float64) (*topo.FatTree, []stormAdd, []stormWave) {
	tb.Helper()
	ft, err := topo.NewFatTree(topo.Config{K: k, HostsPerEdge: hostsPerEdge, HostCapacity: 40})
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	n := ft.NumHosts()
	per := hostsPerEdge
	perPod := (k / 2) * per
	adds := make([]stormAdd, 0, n*flowsPerHost)
	var crossIDs []FlowID
	for i := 0; i < n*flowsPerHost; i++ {
		src := i % n
		var dst int
		if per > 1 && r.Float64() < 0.85 {
			// Rack-local: another host under the same edge switch.
			base := (src / per) * per
			dst = base + r.Intn(per)
			for dst == src {
				dst = base + r.Intn(per)
			}
		} else {
			// Pod-local cross-rack: multi-path (reroutable through the
			// pod's aggs) but confined to the pod, so the link-sharing
			// components stay pod-sized. Inter-pod traffic would glue the
			// whole fabric into one component through the core and turn
			// every scoped pass into a full fallback — a regime the Full
			// variants already measure.
			base := (src / perPod) * perPod
			dst = base + r.Intn(perPod)
			for dst == src || dst/per == src/per {
				dst = base + r.Intn(perPod)
			}
		}
		paths, err := ft.ECMPPaths(src, dst)
		if err != nil {
			tb.Fatal(err)
		}
		a := stormAdd{
			id:      FlowID(i),
			bytes:   500 + r.Float64()*1500,
			arrival: r.Float64() * 10,
			path:    paths[r.Intn(len(paths))],
		}
		adds = append(adds, a)
		if len(paths) > 1 {
			crossIDs = append(crossIDs, a.id)
		}
	}
	// Each storm wave reroutes a batch of multi-path flows onto a different
	// ECMP choice — the failure-recovery traffic pattern the paper's control
	// plane generates.
	if batch > len(crossIDs) {
		batch = len(crossIDs)
	}
	waves := make([]stormWave, nWaves)
	for w := range waves {
		waves[w].at = at0 + step*float64(w)
		for b := 0; b < batch; b++ {
			id := crossIDs[r.Intn(len(crossIDs))]
			src := int(id) % n
			paths, err := ft.ECMPPaths(src, hostOfPath(ft, adds[id].path))
			if err != nil {
				tb.Fatal(err)
			}
			waves[w].reroutes = append(waves[w].reroutes, stormAdd{
				id:   id,
				path: paths[r.Intn(len(paths))],
			})
		}
	}
	return ft, adds, waves
}

// hostOfPath recovers the destination host's global index from a path (its
// last node is the destination host).
func hostOfPath(ft *topo.FatTree, p topo.Path) int {
	last := p.Nodes[len(p.Nodes)-1]
	return ft.Node(last).Index
}

// stormResult is what one replay of a storm yields.
type stormResult struct {
	stats  EngineStats
	events int64         // flows added, reroutes applied and finish events consumed
	waves  time.Duration // wall time of the waves: each SetPath batch plus the Run to one second past it
	hash   uint64        // FNV-1a over every flow's finish time, bit for bit, in ID order
}

// replayStorm runs one engine over the workload — adds, reroute waves, drain.
// setup, when non-nil, configures the simulator before the first flow is
// added.
func replayStorm(tb testing.TB, ft *topo.FatTree, adds []stormAdd, waves []stormWave, setup func(*Simulator)) stormResult {
	tb.Helper()
	sim := New(ft.Topology)
	if setup != nil {
		setup(sim)
	}
	for _, a := range adds {
		if err := sim.AddFlow(a.id, a.bytes, a.arrival, a.path); err != nil {
			tb.Fatal(err)
		}
	}
	res := stormResult{events: int64(len(adds))}
	for _, wv := range waves {
		if err := sim.Run(wv.at); err != nil {
			tb.Fatal(err)
		}
		t0 := time.Now()
		for _, rr := range wv.reroutes {
			if sim.Flow(rr.id).Done() {
				continue
			}
			if err := sim.SetPath(rr.id, rr.path); err != nil {
				tb.Fatal(err)
			}
			res.events++
		}
		if err := sim.Run(wv.at + 1); err != nil {
			tb.Fatal(err)
		}
		res.waves += time.Since(t0)
	}
	if err := sim.RunToCompletion(); err != nil {
		tb.Fatal(err)
	}
	res.stats = sim.Stats()
	res.events += res.stats.HeapPops
	h := fnv.New64a()
	var buf [8]byte
	for _, a := range adds {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(sim.Flow(a.id).Finish()))
		h.Write(buf[:])
	}
	res.hash = h.Sum64()
	return res
}

func forceFull(s *Simulator) { s.forceFull = true }

func runStormBench(b *testing.B, k, hostsPerEdge int, setup func(*Simulator)) {
	ft, adds, waves := buildStormWorkload(b, k, hostsPerEdge, 20)
	b.ReportAllocs()
	b.ResetTimer()
	var work, events int64
	for i := 0; i < b.N; i++ {
		res := replayStorm(b, ft, adds, waves, setup)
		work += res.stats.RecomputeWork
		events += res.events
	}
	b.StopTimer()
	b.ReportMetric(float64(work)/float64(b.N), "work/op")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

func BenchmarkStormK16Incremental(b *testing.B) { runStormBench(b, 16, 4, nil) }
func BenchmarkStormK16Full(b *testing.B)        { runStormBench(b, 16, 4, forceFull) }
func BenchmarkStormK32Incremental(b *testing.B) { runStormBench(b, 32, 1, nil) }
func BenchmarkStormK32Full(b *testing.B)        { runStormBench(b, 32, 1, forceFull) }
func BenchmarkStormK48Incremental(b *testing.B) { runStormBench(b, 48, 1, nil) }

// BenchmarkStormWaves is the profile target for the ripple pass at the size
// the end-to-end benchmark's sim-storm workload runs: k=32, 4 hosts per edge
// switch, 20 flows per host (40960 flows), 8 waves of 512 reroutes one second
// apart. ns/wave is one wave's SetPath batch plus the Run to one second past
// it, sim-storm's operation. The workers=1 and workers=GOMAXPROCS
// sub-benchmarks are the ablation of passes side by side: each of the storm's
// 32 pods is a link-sharing class.
//
//	go test -run '^$' -bench StormWaves -benchtime 3x -cpuprofile cpu.out ./internal/fluid
func BenchmarkStormWaves(b *testing.B) {
	const nWaves = 8
	ft, adds, waves := buildStormWaves(b, 32, 4, 20, nWaves, 512, 2, 1)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var inWaves time.Duration
			var events int64
			for i := 0; i < b.N; i++ {
				res := replayStorm(b, ft, adds, waves, func(s *Simulator) { s.SetWorkers(workers) })
				inWaves += res.waves
				events += res.events
			}
			b.ReportMetric(float64(inWaves.Nanoseconds())/float64(b.N*nWaves), "ns/wave")
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// TestStormWorkRatio pins what component scoping buys, in the deterministic
// currency: on the k=16 storm (4 flows per host keeps the forced-full replay
// under a second) the incremental engine does 261x less recompute work than
// the full-recompute reference (524040 incidences against 137026232). The
// floor, 195x, is 260x less 25%.
//
// The same replay checks the pass accounting: every recompute is a full
// pass, a scoped pass the ripple settled, or one it handed to decomposition.
func TestStormWorkRatio(t *testing.T) {
	ft, adds, waves := buildStormWorkload(t, 16, 4, 4)
	inc := replayStorm(t, ft, adds, waves, nil).stats
	full := replayStorm(t, ft, adds, waves, forceFull).stats
	if ratio := float64(full.RecomputeWork) / float64(inc.RecomputeWork); ratio < 195 {
		t.Fatalf("incremental recompute work %d is only %.1fx below the full replay's %d, want >= 195x", inc.RecomputeWork, ratio, full.RecomputeWork)
	}
	for _, st := range []EngineStats{inc, full} {
		if st.Recomputes != st.RipplePasses+st.RippleFallbacks+st.FullRecomputes {
			t.Errorf("Recomputes %d != RipplePasses %d + RippleFallbacks %d + FullRecomputes %d",
				st.Recomputes, st.RipplePasses, st.RippleFallbacks, st.FullRecomputes)
		}
	}
	if inc.RipplePasses == 0 || inc.RippleFallbacks == 0 || full.FullRecomputes == 0 {
		t.Errorf("storm no longer exercises every pass kind: %+v / %+v", inc, full)
	}
}

// TestStormReplayAllocBytes pins what a flow costs in bytes allocated over
// one replay of the k=16 storm (2048 flows, 768 reroutes; one worker, so the
// count repeats exactly): New, every AddFlow, the waves and the drain. The
// limit is the measured value plus 25 %. At the parent layout — ten per-flow
// columns grown by append, a copy of every route beside the arena's, an ID
// map — it was 949 B per flow; with the route only in the arena, two records
// per flow and every per-flow table doubling, 529.
func TestStormReplayAllocBytes(t *testing.T) {
	const limit = 661
	ft, adds, waves := buildStormWorkload(t, 16, 4, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replayStorm(t, ft, adds, waves, func(s *Simulator) { s.SetWorkers(1) })
	runtime.ReadMemStats(&after)
	perFlow := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(adds))
	if perFlow > limit {
		t.Fatalf("one storm replay allocates %.0f B per flow, want <= %d", perFlow, limit)
	}
	t.Logf("%.0f B allocated per flow", perFlow)
}

// TestStormFinishTimesGolden is the bit-identity oracle for the ripple-heavy
// path: the k=16 storm (10240 flows, three waves of 256 reroutes) replayed at
// one, two and four workers — fixed counts, so passes are queued beside the
// loop even on a one-core runner — must land every finish time on the same
// bits, pinned as one FNV-1a hash. The engine counters are pinned beside it, so a
// change to the pass structure — which flows a pass fills, how often it
// expands or falls back — shows up as a count, and only a change to the
// arithmetic or its order shows up as a hash mismatch. The constants were
// recorded on the column layout (commit 5808edc) before the record layout
// replaced it; the one that has moved since is recomputeWork, 17958249 there:
// check (a) trying the freeze link first walks fewer background lists
// (lazyBG books each walk as work), and with check (a) back in path order
// the count is 17958249 again.
func TestStormFinishTimesGolden(t *testing.T) {
	const wantHash = 0xb90df669311cf06e
	type counts struct{ recomputes, ripplePasses, rippleExpansions, rippleFallbacks, recomputeWork, fillRounds int64 }
	want := counts{20482, 20470, 9754, 12, 17621026, 258803}
	ft, adds, waves := buildStormWorkload(t, 16, 4, 20)
	for _, workers := range []int{1, 2, 4} {
		res := replayStorm(t, ft, adds, waves, func(s *Simulator) { s.SetWorkers(workers) })
		if res.hash != wantHash {
			t.Errorf("workers=%d: finish-time hash %#x, want %#x", workers, res.hash, uint64(wantHash))
		}
		st := res.stats
		got := counts{st.Recomputes, st.RipplePasses, st.RippleExpansions, st.RippleFallbacks, st.RecomputeWork, st.FillRounds}
		if got != want {
			t.Errorf("workers=%d: engine counters %+v, want %+v", workers, got, want)
		}
	}
}
