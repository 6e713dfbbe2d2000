package sbnet

import (
	"fmt"

	"sharebackup/internal/circuit"
	"sharebackup/internal/topo"
)

// This file implements the paper's third open question (Section 6): "when
// backup switches are idle, they can be activated to add bandwidth to the
// network."
//
// Under the paper's wiring the only circuit endpoints that are free while
// the network is healthy are the backup switches' own ports: every active
// switch port already carries a circuit. The capacity that can be added
// without disturbing live circuits is therefore the k/2 parallel links
// between an idle backup edge switch and an idle backup aggregation switch
// of the same pod (their layer-2 circuit-switch ports are both unconnected).
// That fabric is real — it shows up as extra edge-agg capacity — but it is
// unreachable by hosts under two-level routing, because hosts can only reach
// switches occupying logical slots: no delivered packet visits an augmented
// backup (TestAugmentationCarriesNoHostTraffic). Making the extra capacity
// host-reachable requires extra switch ports, which is exactly why the paper
// leaves it as future work. An augmentation ends only when a failover claims
// one of its backups and steals the circuits back.

// Augmentation describes one activated backup pair.
type Augmentation struct {
	Pod      int
	EdgeSw   SwitchID
	AggSw    SwitchID
	Circuits int // k/2 parallel links: the fabric links added
}

// ActivateIdleBackups connects a free backup edge switch and a free backup
// aggregation switch of the pod through all k/2 layer-2 circuit switches,
// adding k/2 fabric links. It returns the augmentation descriptor. Fault
// tolerance is preserved: an augmented backup remains eligible for failover,
// and a replacement that claims it atomically steals its circuits back.
func (n *Network) ActivateIdleBackups(pod int) (*Augmentation, error) {
	if pod < 0 || pod >= n.cfg.K {
		return nil, fmt.Errorf("sbnet: ActivateIdleBackups: pod %d out of range", pod)
	}
	edgeB := n.firstUnaugmentedBackup(n.EdgeGroup(pod))
	aggB := n.firstUnaugmentedBackup(n.AggGroup(pod))
	if edgeB == NoSwitch || aggB == NoSwitch {
		return nil, fmt.Errorf("sbnet: pod %d has no idle unaugmented backup pair", pod)
	}
	em, am := n.switches[edgeB].Member, n.switches[aggB].Member
	for j := 0; j < n.half; j++ {
		if _, err := n.cs2[pod][j].Apply([]circuit.Change{{A: am, B: em}}); err != nil {
			return nil, fmt.Errorf("sbnet: augmenting pod %d: %w", pod, err)
		}
	}
	if n.augmentOf == nil {
		n.augmentOf = make(map[SwitchID]SwitchID)
	}
	n.augmentOf[edgeB] = aggB
	n.augmentOf[aggB] = edgeB
	return &Augmentation{Pod: pod, EdgeSw: edgeB, AggSw: aggB, Circuits: n.half}, nil
}

// firstUnaugmentedBackup returns the group's first free backup not already
// part of an augmentation.
func (n *Network) firstUnaugmentedBackup(g *Group) SwitchID {
	for _, id := range g.Members {
		if n.switches[id].Role == RoleBackup {
			if _, aug := n.augmentOf[id]; !aug {
				return id
			}
		}
	}
	return NoSwitch
}

// clearAugmentation drops augmentation bookkeeping for a switch whose
// circuits were just stolen by a failover, along with its partner's (the
// partner's circuits died with the shared links).
func (n *Network) clearAugmentation(id SwitchID) {
	if p, ok := n.augmentOf[id]; ok {
		delete(n.augmentOf, id)
		delete(n.augmentOf, p)
	}
}

// checkAugmented validates an augmented backup's circuits: CS2 ports
// circuited to the partner on every layer-2 circuit switch, everything else
// unconnected.
func (n *Network) checkAugmented(id SwitchID) error {
	sw := &n.switches[id]
	g := &n.groups[sw.Group]
	partner := n.augmentOf[id]
	pm := n.switches[partner].Member
	for j := 0; j < n.half; j++ {
		cs := n.cs2[g.Pod][j]
		switch sw.Kind {
		case topo.KindEdge:
			if got := cs.AOf(sw.Member); got != pm {
				return fmt.Errorf("sbnet: augmented %s on %s circuits to A-port %d, want partner %d",
					n.Name(id), cs.Name(), got, pm)
			}
			if n.cs1[g.Pod][j].BOf(sw.Member) != circuit.Unconnected {
				return fmt.Errorf("sbnet: augmented %s has a host circuit", n.Name(id))
			}
		case topo.KindAgg:
			if got := cs.BOf(sw.Member); got != pm {
				return fmt.Errorf("sbnet: augmented %s on %s circuits to B-port %d, want partner %d",
					n.Name(id), cs.Name(), got, pm)
			}
			if n.cs3[g.Pod][j].AOf(sw.Member) != circuit.Unconnected {
				return fmt.Errorf("sbnet: augmented %s has a core circuit", n.Name(id))
			}
		default:
			return fmt.Errorf("sbnet: augmentation on unexpected kind %v", sw.Kind)
		}
	}
	return nil
}
