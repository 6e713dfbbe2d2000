package emu

import (
	"math/rand"
	"testing"

	"sharebackup/internal/circuit"
	"sharebackup/internal/sbnet"
	"sharebackup/internal/topo"
)

func newEmu(t *testing.T, k, n int) (*Emulator, *sbnet.Network) {
	t.Helper()
	net, err := sbnet.New(sbnet.Config{K: k, N: n, Tech: circuit.Crosspoint})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	return e, net
}

func allHosts(k int) []Host {
	half := k / 2
	var out []Host
	for pod := 0; pod < k; pod++ {
		for rack := 0; rack < half; rack++ {
			for pos := 0; pos < half; pos++ {
				out = append(out, Host{Pod: pod, Rack: rack, Pos: pos})
			}
		}
	}
	return out
}

func wantSwitchHops(src, dst Host) int {
	switch {
	case src.Pod == dst.Pod && src.Rack == dst.Rack:
		return 1 // edge only
	case src.Pod == dst.Pod:
		return 3 // edge, agg, edge
	default:
		return 5 // edge, agg, core, agg, edge
	}
}

func TestDeliverAllPairsFreshNetwork(t *testing.T) {
	e, _ := newEmu(t, 4, 1)
	hosts := allHosts(4)
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			walk, err := e.Deliver(src, dst)
			if err != nil {
				t.Fatalf("Deliver(%+v, %+v): %v (walk %+v)", src, dst, err, walk)
			}
			fp := e.Fingerprint(walk)
			if got, want := len(fp.Kinds), wantSwitchHops(src, dst); got != want {
				t.Errorf("Deliver(%+v, %+v): %d switch hops, want %d", src, dst, got, want)
			}
		}
	}
}

func TestDeliverSameHostDifferentPositions(t *testing.T) {
	e, _ := newEmu(t, 6, 1)
	walk, err := e.Deliver(Host{Pod: 2, Rack: 1, Pos: 0}, Host{Pod: 2, Rack: 1, Pos: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Same rack: host, edge, host.
	if len(walk) != 3 {
		t.Errorf("same-rack walk = %d hops, want 3", len(walk))
	}
}

// TestImpersonationAfterFailover is the end-to-end Section 4.3 check: after
// replacing switches at every layer, every packet still delivers along the
// SAME logical path, now through the backup switches.
func TestImpersonationAfterFailover(t *testing.T) {
	e, net := newEmu(t, 4, 1)
	src := Host{Pod: 0, Rack: 0, Pos: 0}
	dst := Host{Pod: 2, Rack: 1, Pos: 1}
	before, err := e.Deliver(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	fpBefore := e.Fingerprint(before)

	// Fail every switch on the path: the source edge, the first agg, the
	// core, and the destination edge.
	var replaced []sbnet.SwitchID
	for _, h := range before {
		if h.Switch == sbnet.NoSwitch {
			continue
		}
		if net.Switch(h.Switch).Role != sbnet.RoleActive {
			continue // already replaced (shouldn't happen)
		}
		backup, _, err := net.Replace(h.Switch)
		if err != nil {
			t.Fatalf("replacing %s: %v", net.Name(h.Switch), err)
		}
		replaced = append(replaced, backup)
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	after, err := e.Deliver(src, dst)
	if err != nil {
		t.Fatalf("delivery after full-path failover: %v", err)
	}
	fpAfter := e.Fingerprint(after)
	if !fpBefore.Equal(fpAfter) {
		t.Fatalf("logical path changed after failover:\nbefore %+v\nafter  %+v", fpBefore, fpAfter)
	}
	// The physical switches must now be the backups.
	usedBackup := 0
	for _, h := range after {
		if h.Switch == sbnet.NoSwitch {
			continue
		}
		for _, b := range replaced {
			if h.Switch == b {
				usedBackup++
			}
		}
	}
	if usedBackup != len(replaced) {
		t.Errorf("walk used %d of %d backups", usedBackup, len(replaced))
	}
}

// TestAllPairsAfterRandomChurn replaces and repairs switches randomly, then
// re-verifies full-mesh delivery with unchanged logical fingerprints.
func TestAllPairsAfterRandomChurn(t *testing.T) {
	e, net := newEmu(t, 4, 2)
	hosts := allHosts(4)

	// Record fingerprints on the fresh network.
	type pair struct{ a, b int }
	fps := make(map[pair]PathFingerprint)
	for i := range hosts {
		for j := range hosts {
			if i == j {
				continue
			}
			walk, err := e.Deliver(hosts[i], hosts[j])
			if err != nil {
				t.Fatal(err)
			}
			fps[pair{i, j}] = e.Fingerprint(walk)
		}
	}

	rng := rand.New(rand.NewSource(13))
	var offline []sbnet.SwitchID
	for step := 0; step < 60; step++ {
		if len(offline) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(offline))
			if err := net.Release(offline[i]); err != nil {
				t.Fatal(err)
			}
			offline = append(offline[:i], offline[i+1:]...)
			continue
		}
		g := net.Group(sbnet.GroupID(rng.Intn(net.NumGroups())))
		victim := g.Slots()[rng.Intn(len(g.Slots()))]
		if _, _, err := net.Replace(victim); err != nil {
			continue // pool exhausted; fine
		}
		offline = append(offline, victim)
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	for i := range hosts {
		for j := range hosts {
			if i == j {
				continue
			}
			walk, err := e.Deliver(hosts[i], hosts[j])
			if err != nil {
				t.Fatalf("after churn, Deliver(%+v, %+v): %v", hosts[i], hosts[j], err)
			}
			if !fps[pair{i, j}].Equal(e.Fingerprint(walk)) {
				t.Fatalf("after churn, logical path changed for %+v -> %+v", hosts[i], hosts[j])
			}
		}
	}
}

func TestDeliverValidation(t *testing.T) {
	e, _ := newEmu(t, 4, 1)
	if _, err := e.Deliver(Host{Pod: 9, Rack: 0, Pos: 0}, Host{Pod: 0, Rack: 0, Pos: 1}); err == nil {
		t.Error("out-of-range src accepted")
	}
	if _, err := e.Deliver(Host{Pod: 0, Rack: 0, Pos: 0}, Host{Pod: 0, Rack: 5, Pos: 0}); err == nil {
		t.Error("out-of-range dst accepted")
	}
}

func TestFingerprintEqual(t *testing.T) {
	a := PathFingerprint{Kinds: []topo.Kind{topo.KindEdge}, Groups: []sbnet.GroupID{0}, Slots: []int{1}}
	b := PathFingerprint{Kinds: []topo.Kind{topo.KindEdge}, Groups: []sbnet.GroupID{0}, Slots: []int{1}}
	if !a.Equal(b) {
		t.Error("identical fingerprints unequal")
	}
	c := PathFingerprint{Kinds: []topo.Kind{topo.KindEdge}, Groups: []sbnet.GroupID{1}, Slots: []int{1}}
	if a.Equal(c) {
		t.Error("different groups equal")
	}
	d := PathFingerprint{}
	if a.Equal(d) {
		t.Error("different lengths equal")
	}
}
