package fluid

import (
	"math/rand"
	"testing"

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

// buildStormWorkload generates the deterministic flow set and reroute waves
// once per benchmark; the timed loop only replays them.
func buildStormWorkload(tb testing.TB, k, hostsPerEdge, flowsPerHost int) (*topo.FatTree, []stormAdd, []stormWave) {
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
	// Three storm waves, each rerouting a batch of multi-path flows onto a
	// different ECMP choice — the failure-recovery traffic pattern the
	// paper's control plane generates.
	waves := make([]stormWave, 3)
	for w := range waves {
		waves[w].at = 4 + 2*float64(w)
		batch := 256
		if batch > len(crossIDs) {
			batch = len(crossIDs)
		}
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

// replayStorm runs one engine over the workload — adds, reroute waves, drain —
// and returns its counters and event count.
func replayStorm(tb testing.TB, ft *topo.FatTree, adds []stormAdd, waves []stormWave, full bool) (st EngineStats, events int64) {
	tb.Helper()
	sim := New(ft.Topology)
	sim.ForceFullRecompute(full)
	for _, a := range adds {
		if err := sim.AddFlow(a.id, a.bytes, a.arrival, a.path); err != nil {
			tb.Fatal(err)
		}
	}
	events = int64(len(adds))
	for _, wv := range waves {
		if err := sim.Run(wv.at); err != nil {
			tb.Fatal(err)
		}
		for _, rr := range wv.reroutes {
			if sim.Flow(rr.id).Done() {
				continue
			}
			if err := sim.SetPath(rr.id, rr.path); err != nil {
				tb.Fatal(err)
			}
			events++
		}
	}
	if err := sim.RunToCompletion(); err != nil {
		tb.Fatal(err)
	}
	st = sim.Stats()
	return st, events + st.HeapPops
}

func runStormBench(b *testing.B, k, hostsPerEdge int, full bool) {
	ft, adds, waves := buildStormWorkload(b, k, hostsPerEdge, 20)
	b.ReportAllocs()
	b.ResetTimer()
	var work, events int64
	for i := 0; i < b.N; i++ {
		st, e := replayStorm(b, ft, adds, waves, full)
		work += st.RecomputeWork
		events += e
	}
	b.StopTimer()
	b.ReportMetric(float64(work)/float64(b.N), "work/op")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

func BenchmarkStormK16Incremental(b *testing.B) { runStormBench(b, 16, 4, false) }
func BenchmarkStormK16Full(b *testing.B)        { runStormBench(b, 16, 4, true) }
func BenchmarkStormK32Incremental(b *testing.B) { runStormBench(b, 32, 1, false) }
func BenchmarkStormK32Full(b *testing.B)        { runStormBench(b, 32, 1, true) }
func BenchmarkStormK48Incremental(b *testing.B) { runStormBench(b, 48, 1, false) }

// TestStormWorkRatio pins what component scoping buys, in the deterministic
// currency: on the k=16 storm (4 flows per host keeps the forced-full replay
// under a second) the incremental engine does 260x less recompute work than
// the full-recompute reference. The floor is that ratio less 25%. (The ratio
// was 206x, floor 154, while every background fill rebuilt CSR member lists
// and re-engaged the whole member set on each refill: the reference's
// 137026232 is unchanged, the incremental 665122 fell to 525884.)
//
// The same replay checks the pass accounting: every recompute is a full
// pass, a scoped pass the ripple settled, or one it handed to decomposition.
func TestStormWorkRatio(t *testing.T) {
	ft, adds, waves := buildStormWorkload(t, 16, 4, 4)
	inc, _ := replayStorm(t, ft, adds, waves, false)
	full, _ := replayStorm(t, ft, adds, waves, true)
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
