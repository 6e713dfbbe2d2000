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
	if want := []string{"agent-5", "controller", "cs-0"}; strings.Join(res.Procs, ",") != strings.Join(want, ",") {
		t.Errorf("procs = %v, want %v", res.Procs, want)
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
	// The merged event stream holds every event, time-ordered.
	if len(res.Events) != 4 {
		t.Errorf("merged %d events, want 4", len(res.Events))
	}
	for i := 1; i < len(res.Events); i++ {
		if res.Events[i].T < res.Events[i-1].T {
			t.Fatalf("merged events out of order at %d", i)
		}
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
