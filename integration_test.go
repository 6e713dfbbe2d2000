package sharebackup

// Integration tests exercising the whole stack together: architecture +
// controller + emulation + workload, across failure/recovery lifecycles.

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/detect"
	"sharebackup/internal/emu"
	"sharebackup/internal/sbnet"
)

// TestLifecycleFullStack drives a ShareBackup system through the paper's
// whole lifecycle: node failure -> recovery -> link failure -> recovery ->
// offline diagnosis -> repair -> reuse, verifying after every step that the
// architecture invariants hold AND that real packets still deliver along
// unchanged logical paths through the physical circuit state.
func TestLifecycleFullStack(t *testing.T) {
	sys, err := New(Config{K: 6, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	net, ctl := sys.Network, sys.Controller
	em, err := emu.New(net)
	if err != nil {
		t.Fatal(err)
	}

	// Reference delivery fingerprints across pods.
	src := emu.Host{Pod: 0, Rack: 0, Pos: 0}
	dsts := []emu.Host{
		{Pod: 0, Rack: 0, Pos: 2}, // same rack
		{Pod: 0, Rack: 2, Pos: 1}, // same pod
		{Pod: 3, Rack: 1, Pos: 0}, // cross pod
		{Pod: 5, Rack: 2, Pos: 2}, // cross pod
	}
	baseline := make([]emu.PathFingerprint, len(dsts))
	for i, dst := range dsts {
		walk, err := em.Deliver(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = em.Fingerprint(walk)
	}
	verify := func(stage string) {
		t.Helper()
		if err := net.CheckInvariants(); err != nil {
			t.Fatalf("%s: invariants: %v", stage, err)
		}
		for i, dst := range dsts {
			walk, err := em.Deliver(src, dst)
			if err != nil {
				t.Fatalf("%s: delivery to %+v: %v", stage, dst, err)
			}
			if !baseline[i].Equal(em.Fingerprint(walk)) {
				t.Fatalf("%s: logical path to %+v changed", stage, dst)
			}
		}
	}

	// Stage 1: node failure on the cross-pod path's core group.
	core := net.CoreGroup(0).Slots()[0]
	if _, err := sys.FailNode(core, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	verify("after core failover")

	// Stage 2: link failure between the source edge and an agg.
	edge := net.EdgeGroup(0).Slots()[0]
	agg := net.AggGroup(0).Slots()[1] // edge slot 0's up-port 1 reaches agg slot 1
	if _, err := sys.FailLink(
		EndPoint{Switch: edge, Port: 3 + 1},
		EndPoint{Switch: agg, Port: 0},
		2*time.Millisecond,
	); err != nil {
		t.Fatal(err)
	}
	verify("after link failover")

	// Stage 3: offline diagnosis exonerates the agg, keeps the edge out.
	results, err := ctl.RunDiagnosis()
	if err != nil {
		t.Fatal(err)
	}
	exonerated := 0
	for _, r := range results {
		if r.Exonerated {
			exonerated++
		}
	}
	if exonerated != 1 {
		t.Fatalf("diagnosis exonerated %d suspects, want 1 (the agg side)", exonerated)
	}
	verify("after diagnosis")

	// Stage 4: the faulty edge is repaired and reused for the next
	// failure in its group.
	if err := ctl.RepairSwitch(edge); err != nil {
		t.Fatal(err)
	}
	next := net.EdgeGroup(0).Slots()[1]
	net.InjectNodeFailure(next)
	rec, err := ctl.RecoverNode(next, 3*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Backup) != 1 {
		t.Fatal("no backup used")
	}
	verify("after repaired-switch reuse")
}

// TestConcurrentFailuresAcrossGroups verifies that simultaneous failures in
// different failure groups are all recoverable (independence of groups).
func TestConcurrentFailuresAcrossGroups(t *testing.T) {
	sys, err := New(Config{K: 8, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	net := sys.Network
	var victims []sbnet.SwitchID
	for pod := 0; pod < 8; pod++ {
		victims = append(victims, net.EdgeGroup(pod).Slots()[pod%4])
		victims = append(victims, net.AggGroup(pod).Slots()[(pod+1)%4])
	}
	for t2 := 0; t2 < 4; t2++ {
		victims = append(victims, net.CoreGroup(t2).Slots()[t2])
	}
	for i, v := range victims {
		if _, err := sys.FailNode(v, time.Duration(i)*time.Millisecond); err != nil {
			t.Fatalf("failure %d (%s): %v", i, net.Name(v), err)
		}
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// 20 concurrent failures, one per group: every group exhausted its
	// n=1 pool but the network is whole.
	em, err := emu.New(net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em.Deliver(emu.Host{Pod: 0, Rack: 0, Pos: 0}, emu.Host{Pod: 7, Rack: 3, Pos: 3}); err != nil {
		t.Fatalf("delivery after 20 concurrent failures: %v", err)
	}
}

// TestRandomizedLifecycleChaos runs a long random mix of node failures, link
// failures, diagnosis rounds, and repairs under the controller, checking
// invariants continuously. This is the system-level robustness test.
func TestRandomizedLifecycleChaos(t *testing.T) {
	sys, err := New(Config{K: 6, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	net, ctl := sys.Network, sys.Controller
	rng := rand.New(rand.NewSource(21))
	now := time.Duration(0)
	var offline []sbnet.SwitchID
	for step := 0; step < 200; step++ {
		// Steps lie beyond the 1 s circuit-switch report window, so no
		// run of link reports reads as a failed circuit switch (§5.1).
		now += 2 * time.Second
		switch rng.Intn(4) {
		case 0: // node failure
			g := net.Group(sbnet.GroupID(rng.Intn(net.NumGroups())))
			victim := g.Slots()[rng.Intn(len(g.Slots()))]
			net.InjectNodeFailure(victim)
			if _, err := ctl.RecoverNode(victim, now); err != nil {
				if errors.Is(err, sbnet.ErrNoBackup) {
					// Group exhausted: repair someone.
					net.Switch(victim).Healthy = true
					continue
				}
				t.Fatalf("step %d: %v", step, err)
			}
			offline = append(offline, victim)
		case 1: // link failure edge<->agg in a random pod
			pod := rng.Intn(6)
			es := rng.Intn(3)
			as := rng.Intn(3)
			edge := net.EdgeGroup(pod).Slots()[es]
			agg := net.AggGroup(pod).Slots()[as]
			j := ((as-es)%3 + 3) % 3 // edge up-port reaching agg slot `as`
			if rng.Intn(2) == 0 {
				if err := net.InjectPortFailure(edge, 3+j); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := net.InjectPortFailure(agg, es); err != nil {
					t.Fatal(err)
				}
			}
			rec, err := ctl.ReportLinkFailure(
				EndPoint{Switch: edge, Port: 3 + j},
				EndPoint{Switch: agg, Port: es},
				now,
			)
			if err != nil && rec == nil {
				continue // pools exhausted on both sides
			}
			offline = append(offline, rec.Failed...)
		case 2: // diagnosis
			results, err := ctl.RunDiagnosis()
			if err != nil {
				t.Fatalf("step %d diagnosis: %v", step, err)
			}
			kept := offline[:0]
			for _, id := range offline {
				if net.Switch(id).Role == sbnet.RoleOffline {
					kept = append(kept, id)
				}
			}
			offline = kept
			_ = results
		case 3: // repair a random offline switch
			if len(offline) == 0 {
				continue
			}
			i := rng.Intn(len(offline))
			if net.Switch(offline[i]).Role != sbnet.RoleOffline {
				offline = append(offline[:i], offline[i+1:]...)
				continue
			}
			if err := ctl.RepairSwitch(offline[i]); err != nil {
				t.Fatalf("step %d repair: %v", step, err)
			}
			offline = append(offline[:i], offline[i+1:]...)
		}
		if err := net.CheckInvariants(); err != nil {
			t.Fatalf("step %d: invariants: %v", step, err)
		}
	}
	// The network must still deliver end to end.
	em, err := emu.New(net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em.Deliver(emu.Host{Pod: 1, Rack: 0, Pos: 0}, emu.Host{Pod: 4, Rack: 2, Pos: 1}); err != nil {
		t.Fatalf("delivery after chaos: %v", err)
	}
}

// TestDetectionToRecoveryPipeline drives the full Section 4.1 pipeline:
// F10-style link monitors detect a gray failure (broken forwarding engine),
// both sides report, the controller replaces both ends, and the recovery
// record carries the measured detection latency.
func TestDetectionToRecoveryPipeline(t *testing.T) {
	sys, err := New(Config{K: 6, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	net, ctl := sys.Network, sys.Controller
	edge := net.EdgeGroup(0).Slots()[0]
	agg := net.AggGroup(0).Slots()[0] // edge slot 0 up-port 0 <-> agg slot 0
	edgePort, aggPort := 3+0, 0

	// Ground truth: the edge-side interface fails at t=10ms. Probes
	// consult the network's interface oracle.
	faultAt := 10 * time.Millisecond
	now := time.Duration(0)
	lm, err := detect.NewLinkMonitor(detect.Config{Interval: time.Millisecond, MissThreshold: 3},
		func(detect.CheckKind) bool { return now < faultAt || net.InterfaceUp(edge, edgePort) },
		func(detect.CheckKind) bool { return now < faultAt || net.InterfaceUp(edge, edgePort) },
	)
	if err != nil {
		t.Fatal(err)
	}

	var rec *Recovery
	for now = time.Millisecond; now <= 30*time.Millisecond; now += time.Millisecond {
		if now == faultAt {
			if err := net.InjectPortFailure(edge, edgePort); err != nil {
				t.Fatal(err)
			}
		}
		evA, _, downA, downB := lm.Advance(now)
		if downA && downB && rec == nil {
			rec, err = ctl.ReportLinkFailureDetected(
				EndPoint{Switch: edge, Port: edgePort},
				EndPoint{Switch: agg, Port: aggPort},
				evA.At, evA.Latency,
			)
			if err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if rec == nil {
		t.Fatal("detection never fired")
	}
	if len(rec.Failed) != 2 {
		t.Fatalf("replaced %d switches, want both ends", len(rec.Failed))
	}
	if rec.Detection != 3*time.Millisecond {
		t.Errorf("recovery carries detection %v, want the monitor's 3ms", rec.Detection)
	}
	// Total recovery well under the rerouting baseline's budget at the
	// same probing interval.
	if rec.Total() > rec.Detection+time.Millisecond {
		t.Errorf("recovery total %v; replacement overhead beyond detection should be sub-ms", rec.Total())
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Diagnosis pins the fault on the edge side.
	results, err := ctl.RunDiagnosis()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Suspect.Switch == edge && r.Healthy {
			t.Error("faulty edge exonerated")
		}
		if r.Suspect.Switch == agg && !r.Exonerated {
			t.Error("healthy agg not exonerated")
		}
	}
}

// TestSyncCircuitRestoresAuthoritativeState covers the circuit-switch reboot
// path of Section 5.1 at system level.
func TestSyncCircuitRestoresAuthoritativeState(t *testing.T) {
	sys, err := New(Config{K: 4, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	net := sys.Network
	// Replace a switch so the authoritative config differs from the
	// factory layout, then wreck a circuit switch and resync.
	if _, _, err := net.Replace(net.AggGroup(0).Slots()[0]); err != nil {
		t.Fatal(err)
	}
	cs := net.CS2(0, 1)
	cs.Fail()
	cs.Repair()
	// A rebooted crossbar comes back with stale or scrambled state;
	// scramble it, confirm the invariants catch it, then let the
	// controller re-push the authoritative configuration.
	if _, err := cs.Apply([]circuit.Change{{A: 0, B: 2}, {A: 1, B: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := net.CheckInvariants(); err == nil {
		t.Fatal("scrambled circuit switch passed invariants")
	}
	if _, err := net.SyncCircuit(2, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatalf("invariants after resync: %v", err)
	}
}
