package sbnet

import "testing"

func TestActivateIdleBackups(t *testing.T) {
	net := newNet(t, 6, 1)
	aug, err := net.ActivateIdleBackups(0)
	if err != nil {
		t.Fatal(err)
	}
	if aug.Circuits != 3 {
		t.Errorf("circuits = %d, want k/2", aug.Circuits)
	}
	if net.AugmentedPartner(aug.EdgeSw) != aug.AggSw || net.AugmentedPartner(aug.AggSw) != aug.EdgeSw {
		t.Error("partner bookkeeping wrong")
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatalf("invariants with augmentation: %v", err)
	}
	// Circuits actually exist on every layer-2 circuit switch.
	em := net.Switch(aug.EdgeSw).Member
	am := net.Switch(aug.AggSw).Member
	for j := 0; j < 3; j++ {
		if net.CS2(0, j).AOf(em) != am {
			t.Errorf("CS2[0][%d] missing augmentation circuit", j)
		}
	}
	// A second activation in the same pod has no free pair (n=1).
	if _, err := net.ActivateIdleBackups(0); err == nil {
		t.Error("second augmentation with exhausted backups accepted")
	}
	// Other pods unaffected.
	if _, err := net.ActivateIdleBackups(1); err != nil {
		t.Errorf("pod 1 augmentation failed: %v", err)
	}
	if _, err := net.ActivateIdleBackups(99); err == nil {
		t.Error("out-of-range pod accepted")
	}
}

// TestFailoverStealsAugmentation is the guaranteed-fault-tolerance property:
// an augmented backup is still usable for recovery, and claiming it
// atomically tears the augmentation down.
func TestFailoverStealsAugmentation(t *testing.T) {
	net := newNet(t, 6, 1)
	aug, err := net.ActivateIdleBackups(0)
	if err != nil {
		t.Fatal(err)
	}
	// Fail an active aggregation switch; the only backup is the
	// augmented one.
	victim := net.AggGroup(0).Slots()[1]
	backup, _, err := net.Replace(victim)
	if err != nil {
		t.Fatalf("failover with augmented backup: %v", err)
	}
	if backup != aug.AggSw {
		t.Fatalf("failover used %s, want the augmented backup", net.Name(backup))
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatalf("invariants after stealing augmentation: %v", err)
	}
	if net.AugmentedPartner(aug.EdgeSw) != NoSwitch || net.AugmentedPartner(aug.AggSw) != NoSwitch {
		t.Error("augmentation bookkeeping survived the steal")
	}
	// The partner edge backup is fully unconnected again and still
	// usable for an edge failover.
	edgeVictim := net.EdgeGroup(0).Slots()[0]
	if _, _, err := net.Replace(edgeVictim); err != nil {
		t.Fatalf("edge failover after steal: %v", err)
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFailoverElsewhereKeepsAugmentation(t *testing.T) {
	net := newNet(t, 6, 2)
	aug, err := net.ActivateIdleBackups(1)
	if err != nil {
		t.Fatal(err)
	}
	// A replacement in the same pod using the OTHER backup must leave the
	// augmentation intact.
	victim := net.AggGroup(1).Slots()[0]
	free := net.FreeBackups(net.AggGroup(1).ID)
	var other SwitchID = NoSwitch
	for _, id := range free {
		if id != aug.AggSw {
			other = id
		}
	}
	if other == NoSwitch {
		t.Fatal("no unaugmented backup available")
	}
	if _, err := net.ReplaceWith(victim, other); err != nil {
		t.Fatal(err)
	}
	if net.AugmentedPartner(aug.EdgeSw) != aug.AggSw {
		t.Error("augmentation lost although its backup was not used")
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Core replacements never touch pod augmentations.
	if _, _, err := net.Replace(net.CoreGroup(0).Slots()[0]); err != nil {
		t.Fatal(err)
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// AugmentedPartner returns the switch an augmented backup is circuited to,
// or NoSwitch.
func (n *Network) AugmentedPartner(id SwitchID) SwitchID {
	p, ok := n.augmentOf[id]
	if !ok {
		return NoSwitch
	}
	return p
}
