package controller

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
)

func newCtl(t *testing.T, k, n int) (*Controller, *sbnet.Network) {
	t.Helper()
	net, err := sbnet.New(sbnet.Config{K: k, N: n, Tech: circuit.Crosspoint})
	if err != nil {
		t.Fatal(err)
	}
	return New(net, Config{}), net
}

// TestHeartbeatDetection: a node failure's detection latency is the time
// since the switch's latest heartbeat; a switch that never sent one is
// charged the full miss window (MissThreshold x ProbeInterval = 3 ms).
func TestHeartbeatDetection(t *testing.T) {
	c, net := newCtl(t, 6, 1)
	victim, silent := net.EdgeGroup(0).Members[0], net.AggGroup(0).Members[0]

	c.Heartbeat(victim, 0)
	c.Heartbeat(victim, 2*time.Millisecond)
	net.InjectNodeFailure(victim)
	rec, err := c.RecoverNode(victim, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Detection != 3*time.Millisecond {
		t.Errorf("detection = %v, want 3ms since the latest heartbeat", rec.Detection)
	}

	net.InjectNodeFailure(silent)
	rec, err = c.RecoverNode(silent, 40*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Detection != 3*time.Millisecond {
		t.Errorf("detection without a heartbeat = %v, want the 3ms miss window", rec.Detection)
	}
}

func TestRecoverNodeLatencyBreakdown(t *testing.T) {
	c, net := newCtl(t, 6, 1)
	victim := net.AggGroup(1).Members[0]
	c.Heartbeat(victim, 0)
	net.InjectNodeFailure(victim)

	at := 3 * time.Millisecond
	rec, err := c.RecoverNode(victim, at)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Detection != 3*time.Millisecond {
		t.Errorf("detection = %v, want 3ms (time since last heartbeat)", rec.Detection)
	}
	if rec.Comm != 200*time.Microsecond {
		t.Errorf("comm = %v, want 2 x 100µs", rec.Comm)
	}
	if rec.Reconfig != 70*time.Nanosecond {
		t.Errorf("reconfig = %v, want one crosspoint delay", rec.Reconfig)
	}
	if rec.Total() != rec.Detection+rec.Comm+rec.Reconfig {
		t.Error("total is not the sum of parts")
	}
	// Section 5.3: ShareBackup's recovery is as fast as rerouting — here
	// strictly faster, because a circuit reset (70ns) beats a ~1ms SDN
	// rule update.
	reroute := c.RerouteRecoveryLatency()
	sb := rec.Comm + rec.Reconfig + c.Config().ProbeInterval
	if sb >= reroute+time.Millisecond {
		t.Errorf("ShareBackup recovery %v not comparable to rerouting %v", sb, reroute)
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if net.Switch(victim).Role != sbnet.RoleOffline {
		t.Error("victim not offline after recovery")
	}
}

func TestRecoverNodeNoBackup(t *testing.T) {
	c, net := newCtl(t, 4, 0)
	victim := net.EdgeGroup(0).Members[0]
	if _, err := c.RecoverNode(victim, 0); !errors.Is(err, sbnet.ErrNoBackup) {
		t.Errorf("err = %v, want ErrNoBackup", err)
	}
}

// TestFailoverAndPoolExhaustionCounters: controller.failovers counts node
// recoveries, and controller.backup_pool_exhausted counts every replacement
// refused for an empty pool (§5.1 overflow) — on the node path, once per
// end on the link path, and on the host-link path.
func TestFailoverAndPoolExhaustionCounters(t *testing.T) {
	c, net := newCtl(t, 4, 1)
	failovers := c.Metrics().Counter("controller.failovers")
	exhausted := c.Metrics().Counter("controller.backup_pool_exhausted")
	check := func(step string, wantFailovers, wantExhausted int64) {
		t.Helper()
		if got := failovers.Value(); got != wantFailovers {
			t.Errorf("%s: failovers = %d, want %d", step, got, wantFailovers)
		}
		if got := exhausted.Value(); got != wantExhausted {
			t.Errorf("%s: backup_pool_exhausted = %d, want %d", step, got, wantExhausted)
		}
	}

	// Node path: pod 0's one edge backup serves the first failure only.
	for i, victim := range net.EdgeGroup(0).Slots() {
		net.InjectNodeFailure(victim)
		_, err := c.RecoverNode(victim, time.Duration(i)*time.Millisecond)
		if want := i > 0; errors.Is(err, sbnet.ErrNoBackup) != want {
			t.Fatalf("node failure %d: err = %v, want a refusal: %v", i, err, want)
		}
	}
	check("node path", 1, 1)

	// Link path: the first link spends pod 1's edge and agg backups, the
	// second finds both pools empty.
	half := 2
	edges, aggs := net.EdgeGroup(1).Slots(), net.AggGroup(1).Slots()
	for i := range 2 {
		_, err := c.ReportLinkFailure(EndPoint{edges[i], half}, EndPoint{aggs[i], 0}, time.Duration(i)*time.Millisecond)
		if want := i > 0; errors.Is(err, sbnet.ErrNoBackup) != want {
			t.Fatalf("link failure %d: err = %v, want a refusal: %v", i, err, want)
		}
	}
	check("link path", 1, 3)

	// Host-link path: pod 2's edge backup serves the first failure only.
	for i, edge := range net.EdgeGroup(2).Slots() {
		_, err := c.HandleHostLinkFailure(edge, 100+i, false)
		if want := i > 0; errors.Is(err, sbnet.ErrNoBackup) != want {
			t.Fatalf("host-link failure %d: err = %v, want a refusal: %v", i, err, want)
		}
	}
	check("host-link path", 1, 4)
}

func TestLinkFailureReplacesBothEndsAndQueuesDiagnosis(t *testing.T) {
	c, net := newCtl(t, 6, 1)
	half := 3
	edge := net.EdgeGroup(2).Slots()[0]
	agg := net.AggGroup(2).Slots()[1]
	// Edge slot 0's up-port j reaches agg slot (0+j)%3; agg slot 1 is
	// reached via up-port 1. Ground truth: the edge-side interface broke.
	if err := net.InjectPortFailure(edge, half+1); err != nil {
		t.Fatal(err)
	}
	rec, err := c.ReportLinkFailure(
		EndPoint{Switch: edge, Port: half + 1},
		EndPoint{Switch: agg, Port: 0},
		time.Millisecond,
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Failed) != 2 || len(rec.Backup) != 2 {
		t.Fatalf("link recovery replaced %d switches, want 2 (both ends)", len(rec.Failed))
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(c.pendingDiagnosis) != 1 {
		t.Fatal("link failure not queued for diagnosis")
	}

	// Offline diagnosis: the agg side is healthy and must be exonerated;
	// the edge side is faulty and stays offline.
	results, err := c.RunDiagnosis()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("diagnosis results = %d, want 2", len(results))
	}
	byID := map[sbnet.SwitchID]DiagnosisResult{}
	for _, r := range results {
		byID[r.Suspect.Switch] = r
	}
	if byID[edge].Healthy || byID[edge].Exonerated {
		t.Error("faulty edge interface exonerated")
	}
	if !byID[agg].Healthy || !byID[agg].Exonerated {
		t.Error("healthy agg not exonerated")
	}
	if net.Switch(agg).Role != sbnet.RoleBackup {
		t.Error("exonerated switch not returned to backup pool")
	}
	if net.Switch(edge).Role != sbnet.RoleOffline {
		t.Error("faulty switch not kept offline")
	}
	if len(c.pendingDiagnosis) != 0 {
		t.Error("diagnosis queue not drained")
	}
	if c.DiagnosisReconfigs() == 0 {
		t.Error("diagnosis performed no circuit reconfigurations")
	}
	// The repaired switch later rejoins as a backup — and is NOT swapped
	// back into its old slot.
	if err := c.RepairSwitch(edge); err != nil {
		t.Fatal(err)
	}
	if net.Switch(edge).Role != sbnet.RoleBackup {
		t.Error("repaired switch not a backup")
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDiagnosisNodeFailureBothSuspectsFaulty(t *testing.T) {
	c, net := newCtl(t, 6, 1)
	edge := net.EdgeGroup(0).Slots()[1]
	agg := net.AggGroup(0).Slots()[1]
	// The whole edge node is down: every probe configuration fails for
	// it; the agg is exonerated.
	net.InjectNodeFailure(edge)
	if _, err := c.ReportLinkFailure(
		EndPoint{Switch: edge, Port: 3},
		EndPoint{Switch: agg, Port: 1},
		0,
	); err != nil {
		t.Fatal(err)
	}
	results, err := c.RunDiagnosis()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Suspect.Switch == edge && r.Healthy {
			t.Error("dead node exonerated")
		}
		if r.Suspect.Switch == agg && !r.Healthy {
			t.Error("healthy agg condemned")
		}
		if len(r.Partners) == 0 || len(r.Partners) > 3 {
			t.Errorf("diagnosis used %d partner interfaces, want 1..3", len(r.Partners))
		}
	}
}

func TestDiagnosisSkipsNonOfflineSuspects(t *testing.T) {
	c, net := newCtl(t, 4, 1)
	active := net.EdgeGroup(0).Slots()[0]
	c.pendingDiagnosis = append(c.pendingDiagnosis, LinkSuspects{
		A: EndPoint{Switch: active, Port: 0},
		B: EndPoint{Switch: active, Port: 1},
	})
	results, err := c.RunDiagnosis()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Skipped {
			t.Errorf("active suspect %v probed, want Skipped", r.Suspect)
		}
		if r.Exonerated || r.Healthy {
			t.Error("skipped suspect must not be judged")
		}
	}
}

func TestCircuitSwitchFailureThreshold(t *testing.T) {
	c, net := newCtl(t, 8, 4)
	pod := 0
	// All reports implicate CS_{2,0,0}: links between edge slot s
	// (up-port 0) and agg slot s.
	half := 4
	for i := 0; i < 3; i++ {
		edge := net.EdgeGroup(pod).Slots()[i]
		agg := net.AggGroup(pod).Slots()[i]
		if _, err := c.ReportLinkFailure(
			EndPoint{Switch: edge, Port: half + 0},
			EndPoint{Switch: agg, Port: i},
			time.Duration(i)*time.Millisecond,
		); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
	}
	// The 4th report within the window crosses the threshold (3): halt.
	edge := net.EdgeGroup(pod).Slots()[3]
	agg := net.AggGroup(pod).Slots()[3]
	_, err := c.ReportLinkFailure(
		EndPoint{Switch: edge, Port: half + 0},
		EndPoint{Switch: agg, Port: 3},
		3*time.Millisecond,
	)
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("4th report err = %v, want ErrHalted", err)
	}
	if !c.Halted() {
		t.Fatal("controller not halted")
	}
	// Everything is refused while halted.
	if _, err := c.RecoverNode(net.CoreGroup(0).Slots()[0], 0); !errors.Is(err, ErrHalted) {
		t.Error("node recovery proceeded while halted")
	}
	// Human intervention: reboot the circuit switch, re-push config,
	// resume.
	cs := net.CS2(pod, 0)
	cs.Fail()
	cs.Repair()
	if _, err := net.SyncCircuit(2, pod, 0); err != nil {
		t.Fatal(err)
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatalf("after SyncCircuit: %v", err)
	}
	c.ResumeAfterIntervention()
	if c.Halted() {
		t.Error("still halted after intervention")
	}
	if _, err := c.ReportLinkFailure(
		EndPoint{Switch: edge, Port: half + 0},
		EndPoint{Switch: agg, Port: 3},
		4*time.Millisecond,
	); err != nil {
		t.Errorf("recovery after intervention failed: %v", err)
	}
}

func TestCSReportWindowSlides(t *testing.T) {
	c, net := newCtl(t, 8, 4)
	half := 4
	// Three reports spread over more than the window must not halt.
	for i := 0; i < 4; i++ {
		edge := net.EdgeGroup(0).Slots()[i]
		agg := net.AggGroup(0).Slots()[i]
		if _, err := c.ReportLinkFailure(
			EndPoint{Switch: edge, Port: half + 0},
			EndPoint{Switch: agg, Port: i},
			time.Duration(i)*2*time.Second, // window is 1s
		); err != nil {
			t.Fatalf("spread report %d: %v", i, err)
		}
	}
	if c.Halted() {
		t.Error("halted on reports outside the window")
	}
}

// TestCSReportChargesEachLinkOnce: inside the window a circuit switch is
// charged once per failed link. A refused report resent, and the same link
// reported from its other end (§4.1 has both ends report), describe the
// failure already charged. The same position failing again after its
// replacement names new switches and is charged anew.
func TestCSReportChargesEachLinkOnce(t *testing.T) {
	c, net := newCtl(t, 4, 1)
	half := 2
	edges, aggs := net.EdgeGroup(0).Slots(), net.AggGroup(0).Slots()
	charges := func() int { return len(c.csReports[csKey{2, 0, 0}]) }

	// Link 1 recovers and spends pod 0's one edge and one agg backup.
	rec, err := c.ReportLinkFailure(EndPoint{edges[0], half}, EndPoint{aggs[0], 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	backups := rec.Backup
	// Link 2 is refused for lack of a backup, resent, then reported from
	// its agg end.
	e2, a2 := EndPoint{edges[1], half}, EndPoint{aggs[1], 0}
	for i, r := range [][2]EndPoint{{e2, a2}, {e2, a2}, {a2, e2}} {
		if _, err := c.ReportLinkFailure(r[0], r[1], time.Duration(i+1)*time.Millisecond); !errors.Is(err, sbnet.ErrNoBackup) {
			t.Fatalf("report %d of link 2: %v, want a refusal for lack of a backup", i, err)
		}
	}
	if got := charges(); got != 2 {
		t.Fatalf("%d charges after two links, want 2", got)
	}
	// Link 1's position fails again: its ends are now the two backups.
	if _, err := c.ReportLinkFailure(EndPoint{backups[0], half}, EndPoint{backups[1], 0}, 4*time.Millisecond); !errors.Is(err, sbnet.ErrNoBackup) {
		t.Fatalf("report of the replaced link: %v, want a refusal for lack of a backup", err)
	}
	if got := charges(); got != 3 {
		t.Fatalf("%d charges after the replaced link failed again, want 3", got)
	}
	if c.Halted() {
		t.Fatal("halted at 3 charges; the threshold is more than 3")
	}
}

func TestHostLinkFailurePolicy(t *testing.T) {
	c, net := newCtl(t, 6, 2)
	edge := net.EdgeGroup(1).Slots()[0]

	// Case 1: the switch really was at fault; replacement fixes it.
	flagged, err := c.HandleHostLinkFailure(edge, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	if flagged {
		t.Error("host flagged although the switch was at fault")
	}
	if net.Switch(edge).Role != sbnet.RoleOffline {
		t.Error("faulty switch should stay offline")
	}

	// Case 2: the host was at fault; after replacing the (new) switch the
	// problem persists, so the switch is exonerated and the host flagged.
	edge2 := net.EdgeGroup(1).Slots()[1]
	flagged, err = c.HandleHostLinkFailure(edge2, 101, true)
	if err != nil {
		t.Fatal(err)
	}
	if !flagged {
		t.Error("host not flagged")
	}
	if net.Switch(edge2).Role != sbnet.RoleBackup {
		t.Errorf("exonerated switch role = %v, want backup", net.Switch(edge2).Role)
	}
	hosts := c.FlaggedHosts()
	if len(hosts) != 1 || hosts[0] != 101 {
		t.Errorf("flagged hosts = %v, want [101]", hosts)
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryLog(t *testing.T) {
	c, net := newCtl(t, 6, 1)
	victim := net.CoreGroup(0).Slots()[0]
	net.InjectNodeFailure(victim)
	if _, err := c.RecoverNode(victim, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	recs := c.Recoveries()
	if len(recs) != 1 || recs[0].Kind != "node" {
		t.Fatalf("recovery log = %+v", recs)
	}
}

// TestConcurrentRecoveriesKeepTheirSpans renders two controllers'
// recoveries at once on one bus, released together by a barrier: link
// recoveries joining a remote parent, node recoveries rooting fresh traces.
// Every event must carry its own span's trace and parent, whatever the other
// goroutine is rendering: the bus may hold no span state that two
// recoveries share.
func TestConcurrentRecoveriesKeepTheirSpans(t *testing.T) {
	const rounds = 200
	bus := &obs.Bus{}
	ring := obs.NewRing(8192)
	bus.Attach(ring)
	type want struct {
		trace, parent uint64
		parentProc    string
		events        int
	}
	spans := [2]map[uint64]want{{}, {}}
	errs := make([]error, 2)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range spans {
		c, net := newCtl(t, 4, 1)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = func() error {
				edge, agg := net.EdgeGroup(0).Slots()[0], net.AggGroup(0).Slots()[0]
				core := net.CoreGroup(0).Slots()[0]
				<-start
				for i := 0; i < rounds; i++ {
					// Two virtual seconds apart: no circuit-switch halt.
					at := time.Duration(i) * 2 * time.Second
					a, b := EndPoint{edge, 2}, EndPoint{agg, 0}
					rec, err := c.ReportLinkFailure(a, b, at)
					if err != nil {
						return err
					}
					parent := obs.TraceContext{Trace: uint64(1000*(g+1) + i), Span: uint64(i + 1), Proc: fmt.Sprintf("agent-%d", g)}
					span := Emit(bus, parent, Attempt{Kind: "link", A: a, B: b, At: at, Rec: rec, Done: at + rec.Total()})
					if span.Trace != parent.Trace {
						return fmt.Errorf("link recovery's span joined trace %d, want its parent's %d", span.Trace, parent.Trace)
					}
					// Failure declared, two backups assigned, complete.
					spans[g][span.ID] = want{parent.Trace, parent.Span, parent.Proc, 4}
					node, err := c.RecoverNode(core, at)
					if err != nil {
						return err
					}
					span = Emit(bus, obs.TraceContext{}, Attempt{Kind: "node", A: EndPoint{Switch: core}, At: at, Rec: node, Done: at + node.Total()})
					spans[g][span.ID] = want{span.Trace, 0, "", 3}
					// Release the replaced switches to their pools and fail
					// their backups next round.
					for _, id := range []sbnet.SwitchID{edge, agg, core} {
						if err := net.Release(id); err != nil {
							return err
						}
					}
					edge, agg, core = rec.Backup[0], rec.Backup[1], node.Backup[0]
				}
				return nil
			}()
		}(g)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[uint64]int)
	for _, ev := range ring.Events() {
		w, ok := spans[0][ev.Span]
		if w2, ok2 := spans[1][ev.Span]; ok2 {
			if ok {
				t.Fatalf("span %d started by both goroutines", ev.Span)
			}
			w, ok = w2, true
		}
		if !ok {
			t.Fatalf("%v event in span %d, which no recovery started", ev.Kind, ev.Span)
		}
		if ev.Trace != w.trace || ev.Parent != w.parent || ev.ParentProc != w.parentProc {
			t.Fatalf("%v event of span %d has trace %d, parent %s/%d; its span has trace %d, parent %s/%d",
				ev.Kind, ev.Span, ev.Trace, ev.ParentProc, ev.Parent, w.trace, w.parentProc, w.parent)
		}
		got[ev.Span]++
	}
	for g := range spans {
		if len(spans[g]) != 2*rounds {
			t.Fatalf("goroutine %d recorded %d spans, want %d", g, len(spans[g]), 2*rounds)
		}
		for span, w := range spans[g] {
			if got[span] != w.events {
				t.Fatalf("span %d has %d events, want %d", span, got[span], w.events)
			}
		}
	}
}

// TestEmitRendersEachOutcome: Emit draws a refusal as its failure
// declaration alone, the report that trips the §5.1 halt as one
// circuit-switch-halted event, and nothing — no span either — for a report
// refused because recovery was already halted, or for one whose recovery was
// already done (no record, no error).
func TestEmitRendersEachOutcome(t *testing.T) {
	c, net := newCtl(t, 8, 1)
	bus := &obs.Bus{}
	ring := obs.NewRing(64)
	bus.Attach(ring)
	kinds := func(a Attempt) (out []obs.Kind) {
		t.Helper()
		before := len(ring.Events())
		span := Emit(bus, obs.TraceContext{}, a)
		for _, ev := range ring.Events()[before:] {
			if ev.Span != span.ID || ev.Trace != span.Trace {
				t.Errorf("%v event in span %d of trace %d, want the returned span %d of trace %d", ev.Kind, ev.Span, ev.Trace, span.ID, span.Trace)
			}
			out = append(out, ev.Kind)
		}
		if len(out) == 0 && span != (obs.SpanRef{}) {
			t.Errorf("an attempt that renders nothing started span %+v", span)
		}
		return out
	}
	core := net.CoreGroup(0).Slots()
	if _, err := c.RecoverNode(core[0], 0); err != nil {
		t.Fatal(err)
	}
	_, err := c.RecoverNode(core[1], 0)
	if got := kinds(Attempt{Kind: "node", A: EndPoint{Switch: core[1]}, Err: err}); err == nil || !slices.Equal(got, []obs.Kind{obs.KindFailureDeclared}) {
		t.Errorf("refusal (%v) rendered %v, want one failure-declared", err, got)
	}
	// Four links through CS_{2,0,0} in one window: the fourth trips the halt.
	for i := 0; i < 4; i++ {
		a := EndPoint{Switch: net.EdgeGroup(0).Slots()[i], Port: 4}
		b := EndPoint{Switch: net.AggGroup(0).Slots()[i], Port: i}
		rec, err := c.ReportLinkFailure(a, b, time.Duration(i)*time.Millisecond)
		got := kinds(Attempt{Kind: "link", A: a, B: b, Rec: rec, Err: err})
		if i == 3 && (!c.Halted() || !slices.Equal(got, []obs.Kind{obs.KindCircuitSwitchHalted})) {
			t.Errorf("the tripping report (%v) rendered %v, want one circuit-switch-halted", err, got)
		}
	}
	_, err = c.RecoverNode(core[2], 0)
	if got := kinds(Attempt{Kind: "node", A: EndPoint{Switch: core[2]}, Err: err}); !errors.Is(err, ErrHalted) || len(got) != 0 {
		t.Errorf("a report refused while halted (%v) rendered %v, want nothing", err, got)
	}
	if got := kinds(Attempt{Kind: "link"}); len(got) != 0 {
		t.Errorf("an attempt with no record and no error rendered %v, want nothing", got)
	}
}
