package ctlnet

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sharebackup/internal/obs"
	"sharebackup/internal/obs/debughttp"
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
// each with a private bus, epoch, and trace file — and checks that sbtap's
// stitcher reassembles a single cross-process causal trace with per-hop
// Table-2 phase attribution.
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

	if !e.WaitClockSync(5 * time.Second) {
		t.Fatal("agents never synced clocks with the controller")
	}
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
	var procs []obs.ProcTrace
	for _, path := range files {
		evs, err := obs.ReadJSONL(mustOpen(t, path))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".jsonl")
		procs = append(procs, obs.ProcTrace{Name: name, Events: evs})
	}
	res, err := obs.Stitch(procs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unstitchable) != 0 {
		t.Fatalf("unstitchable: %v", res.Unstitchable)
	}
	if res.Reference != "controller-0" {
		t.Errorf("reference proc = %q, want controller-0", res.Reference)
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

	// Table-2 phase attribution per hop: detection on the agent, report and
	// reconfiguration on the controller, crossbar time on the cs procs.
	attr := map[string]map[string]time.Duration{}
	for _, a := range tr.Attribution() {
		if attr[a.Phase] == nil {
			attr[a.Phase] = map[string]time.Duration{}
		}
		attr[a.Phase][a.Proc] += a.Value
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
// wires them: the SLO watchdog counts the breach once, despite the virtual-
// and wall-clock mirrors of the event.
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
		t.Errorf("breaches = %d, want 1 (virtual+wall mirrors must dedup)", got)
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
	if _, err := NewServer("127.0.0.1:0", e.Ctl, ServerConfig{}); err == nil {
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

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}
