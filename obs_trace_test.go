package sharebackup

import (
	"testing"
	"time"

	"sharebackup/internal/controller"
	"sharebackup/internal/obs"
)

// stitchedSpans stitches the events a ring collected and returns every
// span, trace by trace.
func stitchedSpans(t *testing.T, ring *obs.Ring) []*obs.Span {
	t.Helper()
	res, err := obs.Stitch([]obs.ProcTrace{{Events: ring.Events()}})
	if err != nil {
		t.Fatal(err)
	}
	var spans []*obs.Span
	for _, tr := range res.Traces {
		for _, ss := range tr.Spans {
			spans = append(spans, ss.Span)
		}
	}
	return spans
}

// TestRecoverySpanPhaseBreakdown pins the Section 5.3 latency budget in
// virtual time: a single switch failover's span must decompose into
// detection + report + reconfiguration phases that sum exactly to the
// end-to-end recovery latency, with each phase equal to its budgeted value
// (detection = three missed probe intervals, report = two one-way
// communication delays, reconfiguration = the crosspoint switching time).
func TestRecoverySpanPhaseBreakdown(t *testing.T) {
	const (
		probe     = time.Millisecond // the controller's default
		threshold = 3                // missed keep-alives that declare a failure
		comm      = controller.CommDelay
	)
	bus := &obs.Bus{}
	ring := obs.NewRing(64)
	bus.Attach(ring)
	sys, err := New(Config{K: 4, N: 1, Tech: Crosspoint, Obs: bus})
	if err != nil {
		t.Fatal(err)
	}

	// Last heartbeat at 0, failure declared at exactly the detection
	// deadline: 3 missed 1 ms probes.
	victim := sys.Network.AggGroup(0).Slots()[0]
	sys.Controller.Heartbeat(victim, 0)
	at := time.Duration(threshold) * probe
	rec, err := sys.FailNode(victim, at)
	if err != nil {
		t.Fatal(err)
	}

	reconfig := Crosspoint.ReconfigDelay()
	wantDetection := time.Duration(threshold) * probe
	wantReport := 2 * comm
	wantTotal := wantDetection + wantReport + reconfig
	if rec.Detection != wantDetection || rec.Comm != wantReport || rec.Reconfig != reconfig {
		t.Fatalf("recovery phases detection=%v comm=%v reconfig=%v, want %v/%v/%v",
			rec.Detection, rec.Comm, rec.Reconfig, wantDetection, wantReport, reconfig)
	}
	if rec.Total() != wantTotal {
		t.Fatalf("recovery total %v, want %v", rec.Total(), wantTotal)
	}

	spans := stitchedSpans(t, ring)
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if !sp.Complete || sp.Kind != "node" {
		t.Fatalf("span complete=%v kind=%q, want complete node span", sp.Complete, sp.Kind)
	}
	// The span's phases must sum exactly to its end-to-end latency — the
	// Table 2 property the phase-breakdown reports rely on.
	if sp.Detection+sp.Report+sp.Reconfig != sp.Total {
		t.Fatalf("phase sum %v != span total %v", sp.Detection+sp.Report+sp.Reconfig, sp.Total)
	}
	if sp.Total != rec.Total() || sp.Total != wantTotal {
		t.Fatalf("span total %v, recovery total %v, budget %v — all three must agree",
			sp.Total, rec.Total(), wantTotal)
	}

	// The span's event timeline must carry the whole recovery story in
	// order: declaration, circuit reconfiguration, backup assignment,
	// completion.
	wantKinds := []obs.Kind{
		obs.KindFailureDeclared,
		obs.KindCircuitReconfigured,
		obs.KindBackupAssigned,
		obs.KindRecoveryComplete,
	}
	if len(sp.Events) != len(wantKinds) {
		t.Fatalf("span has %d events, want %d", len(sp.Events), len(wantKinds))
	}
	for i, ev := range sp.Events {
		if ev.Kind != wantKinds[i] {
			t.Fatalf("span event %d is %v, want %v", i, ev.Kind, wantKinds[i])
		}
	}
	done := sp.Events[len(sp.Events)-1]
	if got, want := done.T, at+wantReport+reconfig; got != want {
		t.Fatalf("recovery-complete at %v, want failure time + report + reconfig = %v", got, want)
	}
}

// TestRecoveryBreakdownAggregation checks that repeated failovers aggregate
// into exact phase statistics: constant phases must survive summarization
// unchanged (no float drift at µs scale).
func TestRecoveryBreakdownAggregation(t *testing.T) {
	bus := &obs.Bus{}
	ring := obs.NewRing(256)
	bus.Attach(ring)
	const trials = 4
	for i := 0; i < trials; i++ {
		sys, err := New(Config{K: 4, N: 1, Obs: bus})
		if err != nil {
			t.Fatal(err)
		}
		victim := sys.Network.EdgeGroup(i % 4).Slots()[0]
		sys.Controller.Heartbeat(victim, 0)
		at := 3 * sys.Controller.Config().ProbeInterval // three missed probes
		if _, err := sys.FailNode(victim, at); err != nil {
			t.Fatal(err)
		}
	}
	b := obs.NewBreakdown(stitchedSpans(t, ring), "node")
	if b.N() != trials {
		t.Fatalf("aggregated %d recoveries, want %d", b.N(), trials)
	}
	sums := b.Summaries()
	for _, phase := range obs.PhaseNames {
		s := sums[phase]
		if s.N != trials || s.Min != s.Max || s.Min != s.Mean || s.Min != s.Median {
			t.Fatalf("phase %s not constant across identical failovers: %+v", phase, s)
		}
	}
	if got, want := sums["total"].Min, sums["detection"].Min+sums["report"].Min+sums["reconfig"].Min; got != want {
		t.Fatalf("total %vµs != phase sum %vµs", got, want)
	}
}
