package ctlnet

import (
	"flag"
	"os"
	"strings"
	"testing"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/obs"
	"sharebackup/internal/obs/debughttp"
	"sharebackup/internal/sbnet"
)

// startEmulation builds a trace-collecting emulation and tears it down with
// the test.
func startEmulation(t *testing.T, cfg EmulationConfig) *Emulation {
	t.Helper()
	e, err := NewEmulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestEmulationStitchedTrace drives one link-failure recovery through the
// multi-process emulation — agent, controller, and circuit-switch services,
// each with a private bus on the one process epoch, all writing one trace
// file — and checks that sbtap's stitcher reassembles a single
// cross-process causal trace, in causal order, with per-hop Table-2 phase
// attribution.
func TestEmulationStitchedTrace(t *testing.T) {
	dir := t.TempDir()
	e := startEmulation(t, EmulationConfig{
		NumAgents: 2,
		NumCS:     2,
		TraceDir:  dir,
	})

	mon, err := Subscribe(e.Server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	if err := e.FailLink(0, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-mon.Events:
		if !ok {
			t.Fatalf("monitor closed: %v", mon.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no recovery event within 5s")
	}

	files := e.TraceFiles()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("emulation wrote %d trace files, want 1: %v", len(files), files)
	}
	evs, err := obs.ReadJSONL(mustOpen(t, files[0]))
	if err != nil {
		t.Fatalf("%s: %v", files[0], err)
	}
	for _, ev := range evs {
		if ev.Proc == "" {
			t.Fatalf("event without a process name: %v", ev)
		}
	}
	procs := []obs.ProcTrace{{Events: evs}}
	res, err := obs.Stitch(procs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unstitchable) != 0 {
		t.Fatalf("unstitchable: %v", res.Unstitchable)
	}
	if len(res.Traces) != 1 {
		t.Fatalf("stitched %d traces, want 1", len(res.Traces))
	}
	tr := res.Traces[0]

	// One causal tree: the agent's root span, the controller's recovery
	// under it, and a circuit-switch reconfiguration under that.
	if len(tr.Roots) != 1 {
		t.Fatalf("trace has %d roots, want 1:\n%s", len(tr.Roots), tr.Render())
	}
	root := tr.Roots[0]
	if !strings.HasPrefix(root.Proc, "agent-") {
		t.Errorf("trace root on %q, want the reporting agent", root.Proc)
	}
	byProc := map[string]int{}
	for _, ss := range tr.Spans {
		byProc[ss.Proc]++
	}
	if byProc["controller-0"] == 0 {
		t.Errorf("no controller span in trace:\n%s", tr.Render())
	}
	csSpans := 0
	for proc, n := range byProc {
		if strings.HasPrefix(proc, "cs-") {
			csSpans += n
		}
	}
	if csSpans != 2 {
		t.Errorf("trace has %d circuit-switch spans, want 2:\n%s", csSpans, tr.Render())
	}
	var ctlSpan *obs.StitchedSpan
	for _, ss := range tr.Spans {
		if ss.Proc == "controller-0" {
			ctlSpan = ss
		}
	}
	if ctlSpan.Parent != root {
		t.Error("controller span is not a child of the agent's root span")
	}
	// One epoch, unshifted: every span starts no earlier than its parent.
	for _, ss := range tr.Spans {
		if ss.Parent != nil && ss.Start < ss.Parent.Start {
			t.Errorf("%s/span %d starts at %v, before its parent %s/span %d at %v",
				ss.Proc, ss.Span.ID, ss.Start, ss.Parent.Proc, ss.Parent.Span.ID, ss.Parent.Start)
		}
	}

	// Table-2 phase attribution per hop: detection on the agent, report and
	// reconfiguration on the controller, crossbar time on the cs procs.
	attr := map[string]map[string]time.Duration{}
	detections := 0
	for _, a := range tr.Attribution() {
		if a.Phase == "detection" {
			detections++
		}
		if attr[a.Phase] == nil {
			attr[a.Phase] = map[string]time.Duration{}
		}
		attr[a.Phase][a.Proc] += a.Value
	}
	if detections != 1 {
		t.Errorf("detection charged %d times, want once, to the agent: %v", detections, attr["detection"])
	}
	if got := attr["detection"][root.Proc]; got != 5*time.Millisecond {
		t.Errorf("detection attributed to %s = %v, want 5ms", root.Proc, got)
	}
	if _, ok := attr["report"]["controller-0"]; !ok {
		t.Errorf("no report phase attributed to controller: %v", attr)
	}
	if _, ok := attr["reconfig"]["controller-0"]; !ok {
		t.Errorf("no reconfig phase attributed to controller: %v", attr)
	}

	// The controller span carries the completed recovery's breakdown.
	if !ctlSpan.Span.Complete {
		t.Error("controller span not marked complete")
	}
	if ctlSpan.Span.Total <= 0 {
		t.Errorf("controller span total = %v", ctlSpan.Span.Total)
	}
}

// TestEmulationSLOBreach injects an over-budget recovery with the commands'
// observability flags wired onto the controller's bus, as sbemu -ctlnet
// wires them: the SLO watchdog counts the breach once, from the one
// recovery-complete event the leader emits.
func TestEmulationSLOBreach(t *testing.T) {
	e := startEmulation(t, EmulationConfig{
		NumAgents: 1,
		NumCS:     1,
		TraceDir:  t.TempDir(),
	})
	fs := flag.NewFlagSet("sbtest", flag.ContinueOnError)
	f := debughttp.RegisterFlags(fs)
	// Every real recovery breaches a 1 ns budget.
	if err := fs.Parse([]string{"-slo-budget", "1ns"}); err != nil {
		t.Fatal(err)
	}
	reg := obs.DefaultRegistry
	breaches0, recoveries0 := reg.Counter("slo.breaches").Value(), reg.Counter("slo.recoveries").Value()
	_, cleanup, err := f.Start("sbtest", e.ServerBus)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup() //nolint:errcheck // second call on the failure paths only

	mon, err := Subscribe(e.Server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	if err := e.FailLink(0, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	select {
	case <-mon.Events:
	case <-time.After(5 * time.Second):
		t.Fatal("no recovery event within 5s")
	}

	if got := reg.Counter("slo.breaches").Value() - breaches0; got != 1 {
		t.Errorf("breaches = %d, want 1", got)
	}
	if got := reg.Counter("slo.recoveries").Value() - recoveries0; got != 1 {
		t.Errorf("recoveries = %d, want 1", got)
	}
	if ppm := reg.Gauge("slo.burn_rate_ppm").Value(); ppm != 1e6 {
		t.Errorf("burn rate = %d ppm, want 1e6", ppm)
	}

	if err := cleanup(); err != nil {
		t.Fatal(err)
	}
}

// TestSoloClusterRecoversThroughTheLog: a single controller is a cluster of
// one, and recovers the way every replica does — proposed, committed, then
// applied on its node's loop. A silent switch and a reported link each
// advance its commit index by exactly one, and the network stays sound. A
// server with no consensus replica is refused.
func TestSoloClusterRecoversThroughTheLog(t *testing.T) {
	reg := obs.NewRegistry()
	e := startEmulation(t, EmulationConfig{NumAgents: 2, Registry: reg})
	if _, err := NewServer("127.0.0.1:0", e.Replicas[0].Ctl, ServerConfig{}); err == nil {
		t.Fatal("NewServer without ClusterHooks succeeded")
	}
	commit := reg.Gauge("ctlplane.replica0.commit_index")
	mon, err := Subscribe(e.Server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	// committed waits for the commit index to reach want, then holds it there:
	// the event is published as the entry applies, just before the gauge moves.
	committed := func(want int64) {
		t.Helper()
		if !waitUntil(2*time.Second, func() bool { return commit.Value() >= want }) || commit.Value() != want {
			t.Fatalf("commit index = %d, want %d", commit.Value(), want)
		}
	}
	base := commit.Value()

	victim := e.Agents[0]
	victim.StopHeartbeats()
	if ev := nextEvent(t, mon); ev.Kind != "node" || len(ev.Failed) != 1 || ev.Failed[0] != victim.ID {
		t.Fatalf("first recovery = %+v, want node failover of %d", ev, victim.ID)
	}
	committed(base + 1)

	if err := e.FailLink(1, 0); err != nil {
		t.Fatal(err)
	}
	if ev := nextEvent(t, mon); ev.Kind != "link" || len(ev.Failed) != 2 {
		t.Fatalf("second recovery = %+v, want both ends of agent 1's link", ev)
	}
	committed(base + 2)
	if err := e.Net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeConfigRejectedByName: a negative count or duration is refused
// with the field's name, by the emulation and by the server; zero keeps its
// default.
func TestNegativeConfigRejectedByName(t *testing.T) {
	emu := func(c EmulationConfig) ClusterConfig { return ClusterConfig{EmulationConfig: c, Replicas: 1} }
	for _, c := range []struct {
		field string
		cfg   ClusterConfig
	}{
		{"EmulationConfig.K", emu(EmulationConfig{K: -4})},
		{"EmulationConfig.N", emu(EmulationConfig{N: -1})},
		{"EmulationConfig.NumAgents", emu(EmulationConfig{NumAgents: -3})},
		{"EmulationConfig.NumCS", emu(EmulationConfig{NumCS: -2})},
		{"EmulationConfig.Interval", emu(EmulationConfig{Interval: -time.Millisecond})},
		{"EmulationConfig.MissThreshold", emu(EmulationConfig{NumAgents: 4, MissThreshold: -1})},
		{"ClusterConfig.Replicas", ClusterConfig{Replicas: -1}},
		{"ClusterConfig.TickEvery", ClusterConfig{Replicas: 1, TickEvery: -time.Millisecond}},
	} {
		e, err := NewClusterEmulation(c.cfg)
		if err == nil {
			e.Close()
			t.Errorf("%s negative: emulation started", c.field)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s negative: error %q does not name it", c.field, err)
		}
	}
	nw, err := sbnet.New(sbnet.Config{K: 4, N: 1, Tech: circuit.Crosspoint})
	if err != nil {
		t.Fatal(err)
	}
	ctl := controller.New(nw, controller.Config{})
	hooks := &clusterHooks{dir: newClusterDirectory(0)}
	for _, c := range []struct {
		field string
		cfg   ServerConfig
	}{
		{"ServerConfig.Interval", ServerConfig{Interval: -time.Millisecond}},
		{"ServerConfig.MissThreshold", ServerConfig{MissThreshold: -1}},
	} {
		c.cfg.Cluster = hooks
		srv, err := NewServer("127.0.0.1:0", ctl, c.cfg)
		if err == nil {
			srv.Close()
			t.Errorf("%s negative: server started", c.field)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s negative: error %q does not name it", c.field, err)
		}
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}
