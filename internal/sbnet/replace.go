package sbnet

import (
	"fmt"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/topo"
)

// ErrNoBackup is returned by Replace when the failure group has no free
// backup switch; the failure exceeds the group's capacity n (Section 5.1).
var ErrNoBackup = fmt.Errorf("sbnet: no free backup switch in failure group")

// Replace fails over the given active switch to the first free backup in its
// failure group: the backup takes over the failed switch's logical slot, all
// circuit switches carrying the failed switch's links are reconfigured to
// the backup, and the failed switch goes offline with every circuit torn
// down. It returns the backup chosen and the recovery reconfiguration
// latency (circuit switches reconfigure in parallel, so the latency is one
// technology delay regardless of how many are touched).
func (n *Network) Replace(failed SwitchID) (SwitchID, time.Duration, error) {
	free := n.FreeBackups(n.switches[failed].Group)
	if len(free) == 0 {
		return NoSwitch, 0, fmt.Errorf("%w %d (switch %s)", ErrNoBackup, n.switches[failed].Group, n.Name(failed))
	}
	d, err := n.ReplaceWith(failed, free[0])
	return free[0], d, err
}

// ReplaceWith is Replace with an explicit backup choice.
func (n *Network) ReplaceWith(failed, backup SwitchID) (time.Duration, error) {
	fs := &n.switches[failed]
	bs := &n.switches[backup]
	if fs.Role != RoleActive {
		return 0, fmt.Errorf("sbnet: ReplaceWith: %s is %v, not active", n.Name(failed), fs.Role)
	}
	if bs.Role != RoleBackup {
		return 0, fmt.Errorf("sbnet: ReplaceWith: %s is %v, not a free backup", n.Name(backup), bs.Role)
	}
	if fs.Group != bs.Group {
		return 0, fmt.Errorf("sbnet: ReplaceWith: %s and %s are in different failure groups",
			n.Name(failed), n.Name(backup))
	}
	g := &n.groups[fs.Group]
	slot := fs.Slot
	mB := bs.Member

	var max time.Duration
	apply := func(cs *circuit.Switch, changes ...circuit.Change) error {
		d, err := cs.Apply(changes)
		if err != nil {
			return fmt.Errorf("sbnet: reconfiguring %s: %w", cs.Name(), err)
		}
		if d > max {
			max = d
		}
		return nil
	}

	switch g.Kind {
	case topo.KindEdge:
		pod := g.Pod
		agg := n.AggGroup(pod)
		for j := 0; j < n.half; j++ {
			// Hosts of rack `slot` move to the backup's down-port j.
			if err := apply(n.cs1[pod][j], circuit.Change{A: mB, B: slot}); err != nil {
				return max, err
			}
			// The rotational partner: logical agg slot (slot+j) mod k/2.
			aggM := n.switches[agg.slots[(slot+j)%n.half]].Member
			if err := apply(n.cs2[pod][j], circuit.Change{A: aggM, B: mB}); err != nil {
				return max, err
			}
		}
	case topo.KindAgg:
		pod := g.Pod
		edge := n.EdgeGroup(pod)
		for j := 0; j < n.half; j++ {
			// Inverse of the rotation: logical edge slot (slot-j) mod k/2.
			edgeM := n.switches[edge.slots[((slot-j)%n.half+n.half)%n.half]].Member
			if err := apply(n.cs2[pod][j], circuit.Change{A: mB, B: edgeM}); err != nil {
				return max, err
			}
			// Core partner of up-port t: slot `slot` of core group t.
			coreM := n.switches[n.CoreGroup(j).slots[slot]].Member
			if err := apply(n.cs3[pod][j], circuit.Change{A: coreM, B: mB}); err != nil {
				return max, err
			}
		}
	case topo.KindCore:
		t := g.Index
		for pod := 0; pod < n.cfg.K; pod++ {
			aggM := n.switches[n.AggGroup(pod).slots[slot]].Member
			if err := apply(n.cs3[pod][t], circuit.Change{A: mB, B: aggM}); err != nil {
				return max, err
			}
		}
	default:
		return 0, fmt.Errorf("sbnet: ReplaceWith: unexpected group kind %v", g.Kind)
	}

	g.slots[slot] = backup
	bs.Slot, bs.Role = slot, RoleActive
	fs.Slot, fs.Role = -1, RoleOffline
	// If the backup was augmenting the fabric (extension.go), the
	// reconfiguration above stole its circuits; drop the bookkeeping for
	// it and its partner.
	n.clearAugmentation(backup)
	return max, nil
}

// Release returns an offline switch to the backup pool: the paper keeps a
// repaired or exonerated switch as a backup rather than switching back
// (Section 4.2), saving reconfiguration and avoiding disruption. The
// switch's ground-truth health is restored.
func (n *Network) Release(id SwitchID) error {
	sw := &n.switches[id]
	if sw.Role != RoleOffline {
		return fmt.Errorf("sbnet: Release: %s is %v, not offline", n.Name(id), sw.Role)
	}
	sw.Role = RoleBackup
	sw.Healthy = true
	for p := range sw.PortHealthy {
		sw.PortHealthy[p] = true
	}
	return nil
}

// InjectNodeFailure marks the switch's ground truth unhealthy. It does not
// change roles; recovery is the controller's job.
func (n *Network) InjectNodeFailure(id SwitchID) {
	n.switches[id].Healthy = false
}

// InjectPortFailure marks one interface's ground truth unhealthy.
func (n *Network) InjectPortFailure(id SwitchID, port int) error {
	sw := &n.switches[id]
	if port < 0 || port >= len(sw.PortHealthy) {
		return fmt.Errorf("sbnet: InjectPortFailure: %s has no port %d", n.Name(id), port)
	}
	sw.PortHealthy[port] = false
	return nil
}

// InterfaceUp reports the ground-truth health of one interface: the node
// must be healthy and the specific port must be healthy. Diagnosis probes
// consult this oracle through circuit paths.
func (n *Network) InterfaceUp(id SwitchID, port int) bool {
	sw := &n.switches[id]
	return sw.Healthy && port >= 0 && port < len(sw.PortHealthy) && sw.PortHealthy[port]
}
