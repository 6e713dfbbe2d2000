package ctlnet

import (
	"errors"
	"time"

	"sharebackup/internal/controller"
	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
)

// EmulationConfig tunes a multi-process control-plane emulation (see
// ClusterEmulation).
type EmulationConfig struct {
	// K is the fat-tree parameter. Default 4.
	K int
	// N is the number of backups per failure group. Default 1.
	N int
	// NumAgents is how many switch agents to run (taken from pod 0's edge
	// group actives, then pod 1's, ...). Default 2.
	NumAgents int
	// NumCS is how many circuit-switch control services to run. Default 1.
	NumCS int
	// Interval is the agents' keep-alive interval. Default 5 ms: with the
	// default three misses that is a 15 ms deadline, of which a live agent
	// uses at most one interval — 10 ms of margin for a shared host that
	// takes the CPU away from an agent's writer or a reader for a timeslice.
	// (At 2 ms the 4 ms margin lost to that a few times in a hundred runs.)
	Interval time.Duration
	// MissThreshold is how many missed keep-alive intervals declare a
	// switch dead (the server default when zero). Widen it for scenarios
	// where agents legitimately pause heartbeats — e.g. while chasing a
	// new leader across a controller failover.
	MissThreshold int
	// TraceDir, when set, receives trace.jsonl: one JSONL trace every
	// process writes into, each event stamped with its process' name
	// (controller-<i>, agent-<id>, cs-<i>) — the input for sbtap.
	TraceDir string
	// Registry collects the metrics of replica 0 and every replica's
	// consensus gauges. Nil builds a private one.
	Registry *obs.Registry
}

// check rejects a negative field by name; zero keeps its default.
func (c *EmulationConfig) check() error {
	return errors.Join(
		negative("EmulationConfig", "K", c.K),
		negative("EmulationConfig", "N", c.N),
		negative("EmulationConfig", "NumAgents", c.NumAgents),
		negative("EmulationConfig", "NumCS", c.NumCS),
		negative("EmulationConfig", "Interval", c.Interval),
		negative("EmulationConfig", "MissThreshold", c.MissThreshold),
	)
}

func (c *EmulationConfig) setDefaults() {
	if c.K == 0 {
		c.K = 4
	}
	if c.N == 0 {
		c.N = 1
	}
	if c.NumAgents == 0 {
		c.NumAgents = 2
	}
	if c.NumCS == 0 {
		c.NumCS = 1
	}
	if c.Interval == 0 {
		c.Interval = 5 * time.Millisecond
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
}

// Emulation is a ClusterEmulation of one replica — a single controller,
// which commits every recovery through its own log — with that replica's
// parts named.
type Emulation struct {
	*ClusterEmulation
	Net    *sbnet.Network
	Ctl    *controller.Controller
	Server *Server
	// ServerBus is the controller process' bus.
	ServerBus *obs.Bus
}

// NewEmulation builds and starts a one-replica emulation.
func NewEmulation(cfg EmulationConfig) (*Emulation, error) {
	c, err := NewClusterEmulation(ClusterConfig{EmulationConfig: cfg, Replicas: 1})
	if err != nil {
		return nil, err
	}
	r := c.Replicas[0]
	return &Emulation{ClusterEmulation: c, Net: r.Net, Ctl: r.Ctl, Server: r.Server, ServerBus: r.Bus}, nil
}

// agentSwitchIDs picks n active edge switches striped across pods (pod 0
// slot 0, pod 1 slot 0, ... then slot 1), so concurrently injected
// failures land in distinct failure groups.
func agentSwitchIDs(nw *sbnet.Network, k, n int) []sbnet.SwitchID {
	var ids []sbnet.SwitchID
	for slot := 0; len(ids) < n; slot++ {
		added := false
		for pod := 0; pod < k && len(ids) < n; pod++ {
			slots := nw.EdgeGroup(pod).Slots()
			if slot < len(slots) {
				ids = append(ids, slots[slot])
				added = true
			}
		}
		if !added {
			break
		}
	}
	return ids
}

// firstUpLink resolves the edge switch's first up-port and its agg-side
// peer: edge slot s's up-port 0 (physical port K/2) reaches agg slot 0 by
// the fat-tree rotation, and the agg end's port is the edge's slot index.
func firstUpLink(nw *sbnet.Network, id sbnet.SwitchID, k int) (ownPort int, agg sbnet.SwitchID, aggPort int) {
	sw := nw.Switch(id)
	pod := nw.Group(sw.Group).Pod
	slot := 0
	for j, sid := range nw.EdgeGroup(pod).Slots() {
		if sid == id {
			slot = j
			break
		}
	}
	return k / 2, nw.AggGroup(pod).Slots()[0], slot
}
