package ctlnet

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/ctlplane"
	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
)

// This file wires N complete controller replicas — each its own network
// model, controller, ctlnet server, and consensus node — into one cluster
// over loopback TCP. The layering rule: the Server knows its consensus
// replica only through ClusterHooks, and the consensus node knows the
// Server only through its Apply/Snapshot/Restore hooks. The directory below
// late-binds the two (the Server needs hooks at construction time, before
// its replica's node exists).

// clusterDirectory maps replica IDs to their consensus nodes and serving
// (agent-facing) addresses. Entries are registered as replicas come up.
type clusterDirectory struct {
	mu      sync.Mutex
	nodes   map[int]*ctlplane.Node
	serving map[int]string
	// held keeps the consensus messages that reach a member before its node
	// is registered. A node campaigns as it starts, so the bootstrap vote
	// can arrive at peers whose nodes are still being built; holding it
	// rather than dropping it keeps the first election from waiting a tick
	// for a retry.
	held map[int][]ctlplane.Message
}

// maxHeld bounds a member's held messages. The hold lasts microseconds and
// sees a handful of votes, but the consensus listener reads from anyone.
const maxHeld = 1024

func newClusterDirectory(members ...int) *clusterDirectory {
	d := &clusterDirectory{
		nodes:   make(map[int]*ctlplane.Node),
		serving: make(map[int]string),
		held:    make(map[int][]ctlplane.Message),
	}
	for _, id := range members {
		d.held[id] = nil
	}
	return d
}

// register publishes a member's node and hands it the messages held for it,
// in arrival order.
func (d *clusterDirectory) register(id int, node *ctlplane.Node, servingAddr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nodes[id] = node
	d.serving[id] = servingAddr
	for _, m := range d.held[id] {
		node.Deliver(m)
	}
	delete(d.held, id)
}

// deliver routes one incoming consensus message to its addressee's node,
// holding it while a member's node is not registered yet. Node.Deliver never
// blocks, so it runs under the lock that orders it after the held messages.
func (d *clusterDirectory) deliver(m ctlplane.Message) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := d.nodes[m.To]; n != nil {
		n.Deliver(m)
	} else if q, member := d.held[m.To]; member && len(q) < maxHeld {
		d.held[m.To] = append(q, m)
	}
}

func (d *clusterDirectory) node(id int) *ctlplane.Node {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nodes[id]
}

func (d *clusterDirectory) servingAddr(id int) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.serving[id]
}

// clusterHooks adapts one replica's consensus node to the Server's
// ClusterHooks interface.
type clusterHooks struct {
	dir  *clusterDirectory
	self int
}

func (h *clusterHooks) IsLeader() bool {
	n := h.dir.node(h.self)
	return n != nil && n.IsLeader()
}

func (h *clusterHooks) LeaderAddr() string {
	n := h.dir.node(h.self)
	if n == nil {
		return ""
	}
	ld := n.LeaderID()
	if ld < 0 {
		return ""
	}
	return h.dir.servingAddr(ld)
}

// Propose commits one command as one log entry. Concurrent callers — a
// failure storm's recoverDead goroutines — are pipelined by the node itself.
func (h *clusterHooks) Propose(cmd ctlplane.Command, timeout time.Duration) (*controller.Recovery, error) {
	n := h.dir.node(h.self)
	if n == nil {
		return nil, ctlplane.ErrNotLeader
	}
	res, err := n.Propose(cmd.Encode(), timeout)
	rec, _ := res.(*controller.Recovery)
	return rec, err
}

// Replica is one complete cluster member: its own copy of the network
// model and controller (kept identical across replicas by the replicated
// log), the agent-facing server, and the consensus node + transport.
type Replica struct {
	ID        int
	Net       *sbnet.Network
	Ctl       *controller.Controller
	Server    *Server
	Node      *ctlplane.Node
	Transport *ctlplane.TCPTransport
	Bus       *obs.Bus
}

// Kill tears the replica down abruptly (consensus node, server, transport)
// — the emulation's "power off the controller" lever.
func (r *Replica) Kill() {
	if r.Node != nil {
		r.Node.Stop()
	}
	r.Server.Close()
	if r.Transport != nil {
		r.Transport.Close()
	}
}

// ClusterConfig tunes a replicated-controller emulation.
type ClusterConfig struct {
	EmulationConfig
	// Replicas is the cluster size. Default 3.
	Replicas int
	// TickEvery is one consensus logical tick. Default 10 ms: the first
	// election waits no tick (replica 0 campaigns as it starts) and later
	// ones — a killed leader, a lost quorum — a randomized 10–20 ticks, so
	// they converge in ~100–200 ms and a leader-kill test completes quickly.
	TickEvery time.Duration
	// Seed feeds the replicas' randomized election timeouts: every
	// election after the first.
	Seed uint64
}

func (c *ClusterConfig) setDefaults() {
	c.EmulationConfig.setDefaults()
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.TickEvery == 0 {
		c.TickEvery = 10 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// ClusterEmulation is the Emulation's replicated sibling: NumAgents switch
// agents keep-aliving against whichever of the Replicas currently leads,
// with consensus, redirects, and failover all riding real loopback TCP.
type ClusterEmulation struct {
	procs
	Replicas []*Replica

	dir *clusterDirectory
}

// NewClusterEmulation builds and starts a replica cluster plus its agents.
func NewClusterEmulation(cfg ClusterConfig) (*ClusterEmulation, error) {
	cfg.setDefaults()
	peers := make([]int, cfg.Replicas)
	for i := range peers {
		peers[i] = i
	}
	e := &ClusterEmulation{
		procs: procs{cfg: cfg.EmulationConfig, sinks: procSinks{dir: cfg.TraceDir}},
		dir:   newClusterDirectory(peers...),
	}
	ok := false
	defer func() {
		if !ok {
			e.Close()
		}
	}()

	// Every replica dials the circuit switches, but only the leader mirrors
	// recoveries (Server.finishLive gates on it).
	csAddrs, err := e.startCS()
	if err != nil {
		return nil, err
	}

	// Replicas: server + controller stack first (each its own process bus
	// and epoch), then the consensus mesh once every server address exists.
	for i := 0; i < cfg.Replicas; i++ {
		bus, err := e.sinks.newProcBus(fmt.Sprintf("controller-%d", i))
		if err != nil {
			return nil, err
		}
		nw, err := sbnet.New(sbnet.Config{K: cfg.K, N: cfg.N, Tech: circuit.Crosspoint})
		if err != nil {
			return nil, err
		}
		reg := obs.NewRegistry()
		if i == 0 && cfg.Registry != nil {
			// The shared registry observes replica 0 (metric names collide
			// across replicas; the consensus gauges are ID-namespaced and
			// registered below for every replica).
			reg = cfg.Registry
		}
		ctl := controller.New(nw, controller.Config{
			ProbeInterval: cfg.Interval,
			Metrics:       reg,
		})
		ctl.SetObserver(bus)
		srv, err := NewServer("127.0.0.1:0", ctl, ServerConfig{
			Interval:      cfg.Interval,
			MissThreshold: cfg.MissThreshold,
			Obs:           bus,
			CSAddrs:       csAddrs,
			Cluster:       &clusterHooks{dir: e.dir, self: i},
		})
		if err != nil {
			return nil, err
		}
		e.Replicas = append(e.Replicas, &Replica{
			ID: i, Net: nw, Ctl: ctl, Server: srv, Bus: bus,
		})
	}
	// Consensus mesh: bind every transport, then exchange addresses.
	addrs := make(map[int]string, cfg.Replicas)
	for _, r := range e.Replicas {
		tr, err := ctlplane.NewTCPTransport(r.ID, map[int]string{r.ID: "127.0.0.1:0"}, e.dir.deliver)
		if err != nil {
			return nil, err
		}
		r.Transport = tr
		addrs[r.ID] = tr.Addr()
	}
	for _, r := range e.Replicas {
		r.Transport.SetPeers(addrs)
	}
	for _, r := range e.Replicas {
		r := r
		reg := obs.NewRegistry()
		if cfg.Registry != nil {
			reg = cfg.Registry
		}
		r.Node = ctlplane.NewNode(ctlplane.NodeConfig{
			Raft: ctlplane.RaftConfig{
				ID:    r.ID,
				Peers: peers,
				Seed:  cfg.Seed + uint64(r.ID)*977,
			},
			TickEvery: cfg.TickEvery,
			Transport: r.Transport,
			Apply:     func(data []byte) (any, error) { return r.Server.ApplyCommand(data) },
			Snapshot:  r.Server.SnapshotState,
			Restore:   r.Server.RestoreState,
			Bus:       r.Bus,
			Now:       r.Server.Now,
			Metrics:   reg,
		})
		e.dir.register(r.ID, r.Node, r.Server.Addr())
	}

	// Wait for a first leader so agents don't spend their dial budget on an
	// unelected cluster.
	if _, err := e.Leader(10 * time.Second); err != nil {
		return nil, err
	}

	var serving []string
	for _, r := range e.Replicas {
		serving = append(serving, r.Server.Addr())
	}
	e.model = e.Replicas[0].Net
	if err := e.startAgents(serving); err != nil {
		return nil, err
	}
	ok = true
	return e, nil
}

// Leader waits until one replica reports leadership, returning it.
func (e *ClusterEmulation) Leader(timeout time.Duration) (*Replica, error) {
	nodes := make([]*ctlplane.Node, len(e.Replicas))
	for i, r := range e.Replicas {
		nodes[i] = r.Node
	}
	ld, err := ctlplane.WaitLeader(nodes, timeout)
	if err != nil {
		return nil, err
	}
	return e.Replicas[slices.Index(nodes, ld)], nil
}

// KillLeader abruptly stops the current leader (consensus node, server,
// transport), returning the killed replica. The survivors elect a
// replacement; the agents chase it via redirects and re-dials.
func (e *ClusterEmulation) KillLeader(timeout time.Duration) (*Replica, error) {
	ld, err := e.Leader(timeout)
	if err != nil {
		return nil, err
	}
	ld.Kill()
	return ld, nil
}

// Close stops agents, replicas, and circuit switches, and flushes traces.
func (e *ClusterEmulation) Close() error {
	return e.shutdown(func() error {
		for _, r := range e.Replicas {
			r.Kill()
		}
		return nil
	})
}
