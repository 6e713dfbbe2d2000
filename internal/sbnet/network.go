// Package sbnet builds the ShareBackup physical architecture of Section 3 of
// the paper: a k-ary fat-tree whose packet switches are clustered into
// failure groups of k/2 switches sharing n backup switches, with small
// circuit switches inserted between every adjacent pair of layers (and
// between hosts and edge switches) so that a backup switch can be brought
// online to take over any failed switch's exact physical position.
//
// The package distinguishes logical positions from physical switches. A
// failure group has k/2 logical slots — the fat-tree positions E_{i,j},
// A_{i,j}, C_j — and k/2+n physical switches. Each slot is occupied by
// exactly one active physical switch; the remainder are backups or offline.
// Circuit-switch configurations encode the occupancy, and because repaired
// switches stay in the backup pool (Section 4.2), the mapping drifts over
// time while the logical topology never changes.
package sbnet

import (
	"fmt"

	"sharebackup/internal/circuit"
	"sharebackup/internal/obs"
	"sharebackup/internal/topo"
)

// SwitchID identifies a physical packet switch (regular or backup) in the
// network. IDs are dense and index internal tables.
type SwitchID int32

// NoSwitch is the sentinel for "no switch".
const NoSwitch SwitchID = -1

// GroupID identifies a failure group.
type GroupID int32

// Role is the current role of a physical switch.
type Role uint8

const (
	// RoleActive means the switch occupies a logical slot and carries
	// traffic.
	RoleActive Role = iota
	// RoleBackup means the switch is a hot standby with routing state
	// preloaded and all circuit-switch ports unconnected.
	RoleBackup
	// RoleOffline means the switch is failed, under diagnosis, or in
	// repair, and is unavailable for failover.
	RoleOffline
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleActive:
		return "active"
	case RoleBackup:
		return "backup"
	case RoleOffline:
		return "offline"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// PhysSwitch is a physical packet switch; its SwitchID is its index in the
// network's switch table.
type PhysSwitch struct {
	Kind  topo.Kind // KindEdge, KindAgg or KindCore
	Group GroupID
	// Member is the switch's fixed index within its failure group
	// (0..k/2+n-1). It determines which circuit-switch ports the switch
	// is hard-wired to; it never changes.
	Member int
	// Slot is the logical slot the switch currently occupies, or -1 when
	// it is not active.
	Slot int
	Role Role
	// Healthy is the ground-truth node health used by failure injection
	// and diagnosis oracles. The controller cannot read it directly; it
	// learns health through keep-alives and probes.
	Healthy bool
	// PortHealthy is per-interface ground truth, indexed by port number:
	// edge/agg switches have k/2 down ports then k/2 up ports; core
	// switches have k pod-facing ports.
	PortHealthy []bool
}

// Name renders a stable human-readable name: the original fat-tree notation
// for initially active switches and the paper's BS notation for backups.
func (n *Network) Name(id SwitchID) string {
	sw := &n.switches[id]
	g := &n.groups[sw.Group]
	if sw.Member < n.half {
		switch sw.Kind {
		case topo.KindEdge:
			return fmt.Sprintf("E%d,%d", g.Pod, sw.Member)
		case topo.KindAgg:
			return fmt.Sprintf("A%d,%d", g.Pod, sw.Member)
		case topo.KindCore:
			return fmt.Sprintf("C%d", sw.Member*n.half+g.Index)
		}
	}
	layer := map[topo.Kind]int{topo.KindEdge: 1, topo.KindAgg: 2, topo.KindCore: 3}[sw.Kind]
	return fmt.Sprintf("BS%d,%d,%d", layer, g.Index, sw.Member-n.half)
}

// Group is a failure group: k/2 logical slots shared among k/2+n physical
// switches and n backups.
type Group struct {
	ID   GroupID
	Kind topo.Kind
	// Pod is the pod the group lives in for edge and aggregation groups,
	// and -1 for core groups.
	Pod int
	// Index identifies the group within its layer: the pod number for
	// edge/agg groups, the core column t (cores C_j with j mod k/2 == t)
	// for core groups.
	Index int
	// Members lists the group's physical switches in member-index order.
	Members []SwitchID
	// slots maps logical slot -> active physical switch.
	slots []SwitchID
}

// Slots returns a copy of the slot occupancy (logical slot -> physical
// switch).
func (g *Group) Slots() []SwitchID { return append([]SwitchID(nil), g.slots...) }

// Config parameterizes a ShareBackup network.
type Config struct {
	// K is the fat-tree parameter (even, >= 4).
	K int
	// N is the number of backup switches per failure group (>= 0).
	N int
	// Tech is the circuit-switch technology; it bounds scalability via
	// k/2 + n + 2 <= Tech.PortLimit() (Section 5.3).
	Tech circuit.Technology
}

// Network is a built ShareBackup network.
type Network struct {
	cfg  Config
	half int // k/2
	gsz  int // switches per group: k/2 + n
	psz  int // circuit-switch ports per side: k/2 + n + 2

	switches []PhysSwitch
	groups   []Group

	// Circuit switches: cs1[pod][j] between hosts and edge switches,
	// cs2[pod][j] between edge and aggregation, cs3[pod][t] between
	// aggregation and the t-th core failure group.
	cs1 [][]*circuit.Switch
	cs2 [][]*circuit.Switch
	cs3 [][]*circuit.Switch

	// augmentOf tracks idle-backup augmentations (extension.go): each
	// augmented backup maps to its circuited partner.
	augmentOf map[SwitchID]SwitchID

	// bus, when set, receives circuit-reconfiguration events for switch
	// replacement operations. Nil-safe: the zero Network emits nothing
	// and pays one nil check per replacement.
	bus *obs.Bus
}

// SetObserver attaches an event bus for switch-replacement events. A nil
// bus disables emission.
func (n *Network) SetObserver(bus *obs.Bus) { n.bus = bus }

// New builds a ShareBackup network with straight-through initial circuit
// configurations: physical switch m occupies logical slot m for m < k/2, and
// members k/2..k/2+n-1 are backups with unconnected ports.
func New(cfg Config) (*Network, error) {
	if cfg.K < 4 || cfg.K%2 != 0 {
		return nil, fmt.Errorf("sbnet: k=%d must be even and >= 4", cfg.K)
	}
	if cfg.N < 0 {
		return nil, fmt.Errorf("sbnet: n=%d must be non-negative", cfg.N)
	}
	half := cfg.K / 2
	psz := half + cfg.N + 2
	if limit := cfg.Tech.PortLimit(); psz > limit {
		return nil, fmt.Errorf("sbnet: k/2+n+2 = %d exceeds %v port limit %d (Section 5.3 scalability bound)",
			psz, cfg.Tech, limit)
	}
	n := &Network{cfg: cfg, half: half, gsz: half + cfg.N, psz: psz}

	// Failure groups: k edge groups, k agg groups, k/2 core groups.
	addGroup := func(kind topo.Kind, pod, index int) GroupID {
		id := GroupID(len(n.groups))
		n.groups = append(n.groups, Group{ID: id, Kind: kind, Pod: pod, Index: index})
		return id
	}
	for pod := 0; pod < cfg.K; pod++ {
		addGroup(topo.KindEdge, pod, pod)
	}
	for pod := 0; pod < cfg.K; pod++ {
		addGroup(topo.KindAgg, pod, pod)
	}
	for t := 0; t < half; t++ {
		addGroup(topo.KindCore, -1, t)
	}

	// Physical switches, group by group.
	for gi := range n.groups {
		g := &n.groups[gi]
		g.slots = make([]SwitchID, half)
		ports := cfg.K // edge/agg: k/2 down + k/2 up; core: k pod ports
		for m := 0; m < n.gsz; m++ {
			id := SwitchID(len(n.switches))
			sw := PhysSwitch{
				Kind: g.Kind, Group: g.ID, Member: m,
				Slot: -1, Role: RoleBackup, Healthy: true,
				PortHealthy: make([]bool, ports),
			}
			for p := range sw.PortHealthy {
				sw.PortHealthy[p] = true
			}
			if m < half {
				sw.Slot = m
				sw.Role = RoleActive
				g.slots[m] = id
			}
			n.switches = append(n.switches, sw)
			g.Members = append(g.Members, id)
		}
	}

	// Circuit switches and their initial configurations.
	var err error
	mk := func(layer int, pod, j int) *circuit.Switch {
		s, e := circuit.New(fmt.Sprintf("CS%d,%d,%d", layer, pod, j), cfg.Tech, psz)
		if e != nil && err == nil {
			err = e
		}
		return s
	}
	n.cs1 = make([][]*circuit.Switch, cfg.K)
	n.cs2 = make([][]*circuit.Switch, cfg.K)
	n.cs3 = make([][]*circuit.Switch, cfg.K)
	for pod := 0; pod < cfg.K; pod++ {
		n.cs1[pod] = make([]*circuit.Switch, half)
		n.cs2[pod] = make([]*circuit.Switch, half)
		n.cs3[pod] = make([]*circuit.Switch, half)
		for j := 0; j < half; j++ {
			n.cs1[pod][j] = mk(1, pod, j)
			n.cs2[pod][j] = mk(2, pod, j)
			n.cs3[pod][j] = mk(3, pod, j)
		}
	}
	if err != nil {
		return nil, err
	}

	for pod := 0; pod < cfg.K; pod++ {
		for j := 0; j < half; j++ {
			// CS1: host j of rack s (B-port s) <-> edge member s
			// (A-port s): straight-through.
			var c1 []circuit.Change
			for s := 0; s < half; s++ {
				c1 = append(c1, circuit.Change{A: s, B: s})
			}
			if _, e := n.cs1[pod][j].Apply(c1); e != nil {
				return nil, e
			}
			// CS2: edge member s's up-port j (B-port s) <-> agg
			// member (s+j) mod k/2's down-port j (A-port): the
			// rotational wiring that realizes the full edge-agg
			// bipartite graph.
			var c2 []circuit.Change
			for s := 0; s < half; s++ {
				c2 = append(c2, circuit.Change{A: (s + j) % half, B: s})
			}
			if _, e := n.cs2[pod][j].Apply(c2); e != nil {
				return nil, e
			}
			// CS3 (t=j): agg member s's up-port t (B-port s) <->
			// core group t member s's pod port (A-port s):
			// straight-through, realizing A_{i,s} <-> C_{s*k/2+t}.
			var c3 []circuit.Change
			for s := 0; s < half; s++ {
				c3 = append(c3, circuit.Change{A: s, B: s})
			}
			if _, e := n.cs3[pod][j].Apply(c3); e != nil {
				return nil, e
			}
		}
	}
	return n, nil
}

// K returns the fat-tree parameter.
func (n *Network) K() int { return n.cfg.K }

// NBackups returns the per-group backup count n.
func (n *Network) NBackups() int { return n.cfg.N }

// NumSwitches returns the number of physical packet switches, including
// backups.
func (n *Network) NumSwitches() int { return len(n.switches) }

// NumGroups returns the number of failure groups (5k/2).
func (n *Network) NumGroups() int { return len(n.groups) }

// NumCircuitSwitches returns the number of circuit switches (3k/2 per pod).
func (n *Network) NumCircuitSwitches() int { return 3 * n.cfg.K * n.half }

// Switch returns the physical switch record.
func (n *Network) Switch(id SwitchID) *PhysSwitch { return &n.switches[id] }

// Group returns a failure group.
func (n *Network) Group(id GroupID) *Group { return &n.groups[id] }

// EdgeGroup returns the edge failure group of a pod.
func (n *Network) EdgeGroup(pod int) *Group { return &n.groups[pod] }

// AggGroup returns the aggregation failure group of a pod.
func (n *Network) AggGroup(pod int) *Group { return &n.groups[n.cfg.K+pod] }

// CoreGroup returns the t-th core failure group (cores C_j with
// j mod k/2 == t).
func (n *Network) CoreGroup(t int) *Group { return &n.groups[2*n.cfg.K+t] }

// FreeBackups returns the group's physical switches currently in RoleBackup.
func (n *Network) FreeBackups(g GroupID) []SwitchID {
	var out []SwitchID
	for _, id := range n.groups[g].Members {
		if n.switches[id].Role == RoleBackup {
			out = append(out, id)
		}
	}
	return out
}

// CS1 returns the layer-1 circuit switch CS_{1,pod,j} (hosts <-> edge).
func (n *Network) CS1(pod, j int) *circuit.Switch { return n.cs1[pod][j] }

// CS2 returns the layer-2 circuit switch CS_{2,pod,j} (edge <-> agg).
func (n *Network) CS2(pod, j int) *circuit.Switch { return n.cs2[pod][j] }

// CS3 returns the layer-3 circuit switch CS_{3,pod,t} (agg <-> core group t).
func (n *Network) CS3(pod, t int) *circuit.Switch { return n.cs3[pod][t] }

// SideRing returns the circuit switches of one layer in one pod in ring
// order; their side ports chain them for offline failure diagnosis (Fig 4).
// Layer must be 1, 2 or 3.
func (n *Network) SideRing(layer, pod int) []*circuit.Switch {
	switch layer {
	case 1:
		return n.cs1[pod]
	case 2:
		return n.cs2[pod]
	case 3:
		return n.cs3[pod]
	}
	panic(fmt.Sprintf("sbnet: SideRing: layer %d out of range", layer))
}

// TotalReconfigs sums reconfiguration events over all circuit switches.
func (n *Network) TotalReconfigs() int {
	sum := 0
	for pod := 0; pod < n.cfg.K; pod++ {
		for j := 0; j < n.half; j++ {
			sum += n.cs1[pod][j].Reconfigs() + n.cs2[pod][j].Reconfigs() + n.cs3[pod][j].Reconfigs()
		}
	}
	return sum
}
