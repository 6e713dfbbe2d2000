package fluid

import (
	"testing"

	"sharebackup/internal/obs"
	"sharebackup/internal/topo"
)

// twoLinkTopo builds host -> switch -> host with unit capacities.
func twoLinkTopo(t *testing.T) (*topo.Topology, topo.Path) {
	t.Helper()
	g := &topo.Topology{}
	h1 := g.AddNode(topo.KindHost, 0, 0)
	sw := g.AddNode(topo.KindEdge, 0, 0)
	h2 := g.AddNode(topo.KindHost, 0, 1)
	l1, err := g.AddLink(h1, sw, 1)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := g.AddLink(sw, h2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g, topo.Path{Nodes: []topo.NodeID{h1, sw, h2}, Links: []topo.LinkID{l1, l2}}
}

func TestTelemetrySamplesLifecycle(t *testing.T) {
	g, path := twoLinkTopo(t)
	reg := obs.NewRegistry()
	tel := NewTelemetry(reg)

	sim := New(g)
	if sim.Telemetry() != nil {
		t.Fatal("fresh simulator has telemetry without SetDefaultTelemetry")
	}
	sim.SetTelemetry(tel)

	// Two flows sharing the path: 2 bytes each at fair rate 1/2 → FCT 4s.
	if err := sim.AddFlow(0, 2, 0, path); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddFlow(1, 2, 0, path); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(1); err != nil {
		t.Fatal(err)
	}
	if got := tel.ActiveFlows.Value(); got != 2 {
		t.Fatalf("active flows gauge = %d, want 2", got)
	}

	// Stall one flow, reroute it back, then set the path it already has:
	// every SetPath to a non-empty path counts as a reroute.
	if err := sim.SetPath(1, topo.Path{}); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := sim.SetPath(1, path); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.RunToCompletion(); err != nil {
		t.Fatal(err)
	}

	if got := tel.FlowsStarted.Value(); got != 2 {
		t.Fatalf("flows started = %d, want 2", got)
	}
	if got := tel.FlowsCompleted.Value(); got != 2 {
		t.Fatalf("flows completed = %d, want 2", got)
	}
	if got := tel.Stalls.Value(); got != 1 {
		t.Fatalf("stalls = %d, want 1", got)
	}
	if got := tel.Reroutes.Value(); got != 2 {
		t.Fatalf("reroutes = %d, want 2", got)
	}
	if got := tel.ActiveFlows.Value(); got != 0 {
		t.Fatalf("active flows after completion = %d, want 0", got)
	}
	if tel.FCT.Count() != 2 {
		t.Fatalf("FCT samples = %d, want 2", tel.FCT.Count())
	}
	// Flow 0 ran at rate 1/2 until flow 1 stalled at t=1s... regardless of
	// the exact schedule, both FCTs are in (0s, 10s] in µs.
	if min, max := tel.FCT.Min(), tel.FCT.Max(); min <= 0 || max > 10_000_000 {
		t.Fatalf("FCT range [%d, %d] µs implausible", min, max)
	}
	if tel.RateRecomputes.Value() == 0 {
		t.Fatal("rate recomputes not counted")
	}
}

func TestDefaultTelemetryPickup(t *testing.T) {
	g, path := twoLinkTopo(t)
	reg := obs.NewRegistry()
	tel := NewTelemetry(reg)
	SetDefaultTelemetry(tel)
	defer SetDefaultTelemetry(nil)

	sim := New(g)
	if sim.Telemetry() != tel {
		t.Fatal("New did not pick up the default telemetry")
	}
	if err := sim.AddFlow(0, 1, 0, path); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("fluid.flows_completed").Value() != 1 {
		t.Fatal("default telemetry saw no completion")
	}

	SetDefaultTelemetry(nil)
	if New(g).Telemetry() != nil {
		t.Fatal("SetDefaultTelemetry(nil) did not disable pickup")
	}
}

func TestNewTelemetryNilRegistryUsesDefault(t *testing.T) {
	tel := NewTelemetry(nil)
	if tel.FCT != obs.DefaultRegistry.Histogram("fluid.fct_us") {
		t.Fatal("nil registry did not resolve against obs.DefaultRegistry")
	}
}

// TestTelemetryMirrorsEngineStats: with telemetry attached from the start,
// every engine counter in the registry equals the simulator's own Stats,
// and the work histogram holds one sample per recompute.
func TestTelemetryMirrorsEngineStats(t *testing.T) {
	// Disjoint pair links with staggered arrivals: the first batch fills as
	// closed components, every later arrival dirties one link out of many
	// and settles as a ripple pass.
	g, paths := pairField(t, 16, 1)
	reg := obs.NewRegistry()
	sim := New(g)
	sim.SetTelemetry(NewTelemetry(reg))
	for i, p := range paths {
		if err := sim.AddFlow(FlowID(2*i), 10, 0, p); err != nil {
			t.Fatal(err)
		}
		if err := sim.AddFlow(FlowID(2*i+1), 5, 1+float64(i)*0.125, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	st := sim.Stats()
	for _, c := range []struct {
		name  string
		stat  int64
		moved bool // the workload must have exercised it
	}{
		{"fluid.rate_recomputes", st.Recomputes, true},
		{"fluid.rate_recompute_work", st.RecomputeWork, true},
		{"fluid.ripple_passes", st.RipplePasses, true},
		{"fluid.ripple_expansions", st.RippleExpansions, false},
		{"fluid.ripple_fallbacks", st.RippleFallbacks, false},
		{"fluid.parallel_passes", st.ParallelPasses, false},
		{"fluid.components", st.Components, true},
		{"fluid.fill_rounds", st.FillRounds, true},
		{"fluid.link_scans", st.LinkScans, true},
		{"fluid.scan_rebuilds", st.ScanRebuilds, true},
	} {
		if got := reg.Counter(c.name).Value(); got != c.stat {
			t.Errorf("%s = %d, Stats has %d", c.name, got, c.stat)
		}
		if c.moved && c.stat == 0 {
			t.Errorf("%s stayed zero; the workload no longer exercises it", c.name)
		}
	}
	// One work sample per recompute, summing to the work counter.
	if h := reg.Histogram("fluid.recompute_work_per_recompute"); h.Count() != st.Recomputes || h.Sum() != st.RecomputeWork {
		t.Errorf("fluid.recompute_work_per_recompute count %d sum %d, want %d and %d",
			h.Count(), h.Sum(), st.Recomputes, st.RecomputeWork)
	}
}
