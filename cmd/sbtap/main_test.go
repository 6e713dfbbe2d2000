package main

import (
	"os"
	"strings"
	"testing"
	"time"

	"sharebackup/internal/ctlnet"
	"sharebackup/internal/obs"
)

func mkEvent(proc string, seq uint64) obs.Event {
	ev := obs.NewEvent(obs.KindLog, time.Millisecond)
	ev.Proc = proc
	ev.Seq = seq
	return ev
}

// Every bus numbers its own events, so two interleaved process streams —
// a sweep's trials, say — each seq 1..5, must not read as gaps; a real hole
// inside one stream still must.
func TestSeqLossGroupsByShard(t *testing.T) {
	var evs []obs.Event
	for seq := uint64(1); seq <= 5; seq++ {
		evs = append(evs, mkEvent("recovery-crosspoint/0", seq), mkEvent("recovery-crosspoint/1", seq))
	}
	if lost, gaps := seqLoss(evs); lost != 0 || gaps != 0 {
		t.Fatalf("interleaved complete streams read as lost=%d gaps=%d, want 0/0", lost, gaps)
	}

	evs = append(evs, mkEvent("recovery-crosspoint/0", 7)) // missing seq 6
	if lost, gaps := seqLoss(evs); lost != 1 || gaps != 1 {
		t.Fatalf("real gap read as lost=%d gaps=%d, want 1/1", lost, gaps)
	}
}

// The unnamed process bus is one more stream: its holes count, and the
// named stream beside it does not mask or fake them.
func TestSeqLossUntaggedStream(t *testing.T) {
	evs := []obs.Event{
		mkEvent("", 1), mkEvent("", 2), mkEvent("", 5), // process bus lost 3,4
		mkEvent("recovery-crosspoint/3", 1), mkEvent("recovery-crosspoint/3", 2),
	}
	if lost, gaps := seqLoss(evs); lost != 2 || gaps != 1 {
		t.Fatalf("lost=%d gaps=%d, want 2/1", lost, gaps)
	}
}

// TestControlPlaneSummaryGolden pins the control-plane timeline rendering:
// elections, stepdowns, and agent failovers each get a line, in time order;
// the header counts them and reports the highest term seen, and a trace
// without any such events renders nothing at all.
func TestControlPlaneSummaryGolden(t *testing.T) {
	role := func(kind obs.Kind, t time.Duration, replica, term int32) obs.Event {
		ev := obs.NewEvent(kind, t)
		ev.Switch, ev.Count = replica, term
		return ev
	}
	fo := obs.NewEvent(obs.KindFailover, 9*time.Millisecond)
	fo.Switch = 12
	fo.Detail = "127.0.0.1:41000"
	fo.Count = 2
	evs := []obs.Event{
		role(obs.KindLeaderElected, 1*time.Millisecond, 0, 1),
		role(obs.KindLeaderLost, 8*time.Millisecond, 0, 1),
		fo,
		role(obs.KindLeaderElected, 10*time.Millisecond, 2, 3),
	}
	want := "control plane: 2 elections, 1 stepdowns, 1 agent failovers (max term 3)\n" +
		"           1ms  leader-elected  replica=0 term=1\n" +
		"           8ms  leader-lost     replica=0 term=1\n" +
		"           9ms  agent-failover  switch=12 -> 127.0.0.1:41000 (connection 2)\n" +
		"          10ms  leader-elected  replica=2 term=3\n"
	if got := controlPlaneSummary(evs); got != want {
		t.Errorf("controlPlaneSummary:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Single-controller traces stay clean: no header, no empty section.
	plain := []obs.Event{mkEvent("", 1), mkEvent("", 2)}
	if got := controlPlaneSummary(plain); got != "" {
		t.Errorf("summary on plain trace: %q", got)
	}

	// A trace interleaves processes, so its events can arrive out of time
	// order: the timeline sorts them by time, ties in file order.
	failover := func(t time.Duration, sw int32) obs.Event {
		ev := obs.NewEvent(obs.KindFailover, t)
		ev.Switch, ev.Detail, ev.Count = sw, "127.0.0.1:41000", 1
		return ev
	}
	shuffled := []obs.Event{
		failover(68715*time.Microsecond, 3),
		failover(68672*time.Microsecond, 5),
		failover(68715*time.Microsecond, 1),
	}
	want = "control plane: 0 elections, 0 stepdowns, 3 agent failovers (max term 0)\n" +
		"      68.672ms  agent-failover  switch=5 -> 127.0.0.1:41000 (connection 1)\n" +
		"      68.715ms  agent-failover  switch=3 -> 127.0.0.1:41000 (connection 1)\n" +
		"      68.715ms  agent-failover  switch=1 -> 127.0.0.1:41000 (connection 1)\n"
	if got := controlPlaneSummary(shuffled); got != want {
		t.Errorf("controlPlaneSummary out of time order:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// The stitched span tree names leadership changes and failover hops so a
// leader kill mid-recovery is legible in sbtap -spans output.
func TestStitchRendersLeadershipEvents(t *testing.T) {
	const trace = uint64(0x77)
	fail := obs.NewEvent(obs.KindFailureDeclared, time.Millisecond)
	fail.Span, fail.Trace = 1, trace
	fail.Detail = "link"
	fo := obs.NewEvent(obs.KindFailover, 2*time.Millisecond)
	fo.Span, fo.Trace = 1, trace
	fo.Switch, fo.Detail, fo.Count = 12, "127.0.0.1:41000", 2
	elected := obs.NewEvent(obs.KindLeaderElected, 3*time.Millisecond)
	elected.Span, elected.Trace = 1, trace
	elected.Switch, elected.Count = 1, 4
	lost := obs.NewEvent(obs.KindLeaderLost, 4*time.Millisecond)
	lost.Span, lost.Trace = 1, trace
	lost.Switch, lost.Count = 0, 3

	procs := []obs.ProcTrace{{Name: "agent-12", Events: []obs.Event{fail, fo, elected, lost}}}
	for i := range procs[0].Events {
		procs[0].Events[i].Proc = procs[0].Name
	}
	res, err := obs.Stitch(procs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(res.Traces))
	}
	out := res.Traces[0].Render()
	for _, want := range []string{
		"failover -> 127.0.0.1:41000 (connection 2)",
		"leader-elected replica=1 term=4",
		"leader-lost replica=0 term=3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestHistCountsEachRecoveryOnce: -hist on the trace of a live control plane
// that made two link recoveries histograms two, not one per event the
// recoveries' spans hold.
func TestHistCountsEachRecoveryOnce(t *testing.T) {
	e, err := ctlnet.NewEmulation(ctlnet.EmulationConfig{NumAgents: 2, NumCS: 1, TraceDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := e.FailLink(i, time.Millisecond); err != nil {
			e.Close()
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(e.TraceFiles()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := obs.Stitch([]obs.ProcTrace{{Name: "trace", Events: evs}})
	if err != nil {
		t.Fatal(err)
	}
	var spans []*obs.Span
	for _, tr := range res.Traces {
		for _, ss := range tr.Spans {
			spans = append(spans, ss.Span)
		}
	}
	out := phaseHistograms(evs, spans)
	for _, phase := range []string{"detection", "report", "reconfig", "total"} {
		if want := "recovery " + phase + " latency (ns)  (n=2,"; !strings.Contains(out, want) {
			t.Errorf("-hist lacks %q:\n%s", want, out)
		}
	}
}
