package obs

import (
	"strings"
	"testing"
	"time"
)

// syntheticTraces builds a three-process recovery on one epoch: the agent
// declares the link failure at 2ms, the circuit switch reconfigures at 3.5ms
// and the controller completes the recovery at 4ms.
func syntheticTraces() []ProcTrace {
	const trace = uint64(0xabc)

	// Agent: roots the trace.
	agentFail := NewEvent(KindFailureDeclared, 2*time.Millisecond)
	agentFail.Span = 1
	agentFail.Trace = trace
	agentFail.Detection = 3 * time.Millisecond
	agentFail.Detail = "link"
	agent := ProcTrace{Name: "agent-5", Events: []Event{NewEvent(KindLog, time.Millisecond), agentFail}}

	// Controller: recovery span child of the agent's.
	ctlDone := NewEvent(KindRecoveryComplete, 4*time.Millisecond)
	ctlDone.Span = 9
	ctlDone.Trace = trace
	ctlDone.Parent = 1
	ctlDone.ParentProc = "agent-5"
	ctlDone.Detail = "link"
	ctlDone.Detection = 3 * time.Millisecond
	ctlDone.Report = 500 * time.Microsecond
	ctlDone.Reconfig = 30 * time.Microsecond
	ctlDone.Total = ctlDone.Detection + ctlDone.Report + ctlDone.Reconfig
	ctl := ProcTrace{Name: "controller", Events: []Event{ctlDone}}

	// Circuit switch: reconfiguration span child of the controller's.
	csEv := NewEvent(KindCircuitReconfigured, 3500*time.Microsecond)
	csEv.Span = 2
	csEv.Trace = trace
	csEv.Parent = 9
	csEv.ParentProc = "controller"
	csEv.Reconfig = 30 * time.Microsecond
	cs := ProcTrace{Name: "cs-0", Events: []Event{csEv}}

	return []ProcTrace{agent, ctl, cs}
}

func TestStitchLinksSpansAcrossProcesses(t *testing.T) {
	procs := syntheticTraces()
	// Stamp Proc from the file-level name, as real per-process buses do.
	for i := range procs {
		for j := range procs[i].Events {
			procs[i].Events[j].Proc = procs[i].Name
		}
	}
	res, err := Stitch(procs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unstitchable) != 0 {
		t.Fatalf("unstitchable: %v", res.Unstitchable)
	}
	if len(res.Traces) != 1 {
		t.Fatalf("traces = %d", len(res.Traces))
	}
	tr := res.Traces[0]
	if len(tr.Roots) != 1 || tr.Roots[0].Proc != "agent-5" {
		t.Fatalf("root = %+v", tr.Roots)
	}
	// Span starts are the events' own times: nothing is shifted.
	byProc := map[string]*StitchedSpan{}
	for _, ss := range tr.Spans {
		byProc[ss.Proc] = ss
	}
	for proc, want := range map[string]time.Duration{"agent-5": 2 * time.Millisecond, "controller": 4 * time.Millisecond, "cs-0": 3500 * time.Microsecond} {
		if got := byProc[proc].Start; got != want {
			t.Errorf("%s span start = %v, want %v", proc, got, want)
		}
	}
	if byProc["controller"].Parent != byProc["agent-5"] {
		t.Error("controller span not child of agent span")
	}
	if byProc["cs-0"].Parent != byProc["controller"] {
		t.Error("cs span not child of controller span")
	}
	// Rendering names every hop.
	out := tr.Render()
	for _, want := range []string{"agent-5", "controller", "cs-0", "detection=3ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestStitchReportsUnstitchable(t *testing.T) {
	procs := syntheticTraces()
	// Stitch the controller's file alone: its span's parent lives in the
	// agent's file, which is missing — the reference must be diagnosed.
	orphan := procs[1:2] // controller only
	res, err := Stitch(orphan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unstitchable) == 0 {
		t.Fatal("missing parent not diagnosed")
	}
	found := false
	for _, u := range res.Unstitchable {
		if strings.Contains(u, "missing parent agent-5/1") {
			found = true
		}
	}
	if !found {
		t.Errorf("diagnostics = %v, want missing parent agent-5/1", res.Unstitchable)
	}
	// The orphaned span still renders, flagged.
	if len(res.Traces) != 1 || !res.Traces[0].Spans[0].Orphan {
		t.Error("orphan span not flagged")
	}
}

// recoverySpan is one virtual-time recovery on proc's bus: declared at at,
// its circuit reconfigured at an unknown time (T = -1, as sbnet emits it),
// complete 1ms later. Each span roots its own trace.
func recoverySpan(proc string, span, trace uint64, kind string, at time.Duration) []Event {
	fd := NewEvent(KindFailureDeclared, at)
	cr := NewEvent(KindCircuitReconfigured, -1)
	done := NewEvent(KindRecoveryComplete, at+time.Millisecond)
	done.Detail = kind
	done.Total = time.Millisecond
	evs := []Event{fd, cr, done}
	for i := range evs {
		evs[i].Proc, evs[i].Span, evs[i].Trace = proc, span, trace
	}
	return evs
}

// Span IDs are per-bus counters, so two processes interleaved in one stream
// both use span ID 1: they stay two spans, not one merged span that would
// halve the breakdown's recovery count.
func TestStitchKeepsProcessSpansApart(t *testing.T) {
	a := recoverySpan("recovery-crosspoint/0", 1, 0xa, "node", time.Millisecond)
	b := recoverySpan("recovery-crosspoint/1", 1, 0xb, "node", 2*time.Millisecond)
	evs := []Event{a[0], b[0], b[1], a[1], b[2], a[2]}
	res, err := Stitch([]ProcTrace{{Events: evs}})
	if err != nil {
		t.Fatal(err)
	}
	var spans []*Span
	for _, tr := range res.Traces {
		for _, ss := range tr.Spans {
			if len(ss.Span.Events) != 3 || !ss.Span.Complete {
				t.Errorf("%s/span %d: %d events, complete=%v, want 3 and complete",
					ss.Proc, ss.Span.ID, len(ss.Span.Events), ss.Span.Complete)
			}
			spans = append(spans, ss.Span)
		}
	}
	if n := NewBreakdown(spans, "").N(); n != 2 {
		t.Fatalf("breakdown aggregated %d recoveries, want 2", n)
	}
}

// Stitching is a function of its input: spans that start at the same
// virtual instant keep their first-seen order, and an event of unknown time
// (T = -1) never becomes a span's start.
func TestStitchIsDeterministic(t *testing.T) {
	var evs []Event
	for i, proc := range []string{"recovery-crosspoint/0", "recovery-crosspoint/1"} {
		at := 5 * time.Millisecond
		evs = append(evs, recoverySpan(proc, 1, uint64(4*i+1), "node", at)...)
		evs = append(evs, recoverySpan(proc, 2, uint64(4*i+2), "link", at)...)
	}
	render := func() string {
		res, err := Stitch([]ProcTrace{{Events: evs}})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tr := range res.Traces {
			for _, ss := range tr.Spans {
				if ss.Start < 0 {
					t.Fatalf("%s/span %d starts at %v", ss.Proc, ss.Span.ID, ss.Start)
				}
			}
			b.WriteString(tr.Render())
		}
		return b.String()
	}
	first := render()
	for i := 1; i < 20; i++ {
		if got := render(); got != first {
			t.Fatalf("stitch %d rendered\n%s\nfirst stitch rendered\n%s", i, got, first)
		}
	}
	if want := "trace 1 (node recovery, 1 spans)\n  recovery-crosspoint/0/span 1 @ 5ms (3 events)\n"; !strings.HasPrefix(first, want) {
		t.Errorf("first-seen trace does not lead:\n%s", first)
	}
}
