package ctlnet

import (
	"errors"
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
// over loopback TCP; a single controller is a cluster of one. The layering rule: the Server knows its consensus
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

// startReplicas builds every controller replica there is: one around each
// controller in ctls, replica i serving on loopback with cfgs[i] (its
// Cluster hooks are set here), its consensus node applying what commits. It
// returns once one of them leads. reg receives every replica's consensus
// gauges (their names carry the replica ID). A single controller is a
// cluster of one: it commits alone, through the same log.
func startReplicas(ctls []*controller.Controller, cfgs []ServerConfig, tick time.Duration, seed uint64, reg *obs.Registry) (rs []*Replica, err error) {
	peers := make([]int, len(ctls))
	for i := range peers {
		peers[i] = i
	}
	dir := newClusterDirectory(peers...)
	defer func() {
		if err != nil {
			for _, r := range rs {
				r.Kill()
			}
			rs = nil
		}
	}()
	// Servers first, then the consensus mesh once every server address
	// exists.
	for i, ctl := range ctls {
		cfg := cfgs[i]
		cfg.Cluster = &clusterHooks{dir: dir, self: i}
		srv, err := NewServer("127.0.0.1:0", ctl, cfg)
		if err != nil {
			return rs, err
		}
		rs = append(rs, &Replica{ID: i, Net: ctl.Network(), Ctl: ctl, Server: srv, Bus: srv.bus})
	}
	// Bind every transport, then exchange addresses.
	addrs := make(map[int]string, len(rs))
	for _, r := range rs {
		if r.Transport, err = ctlplane.NewTCPTransport(r.ID, map[int]string{r.ID: "127.0.0.1:0"}, dir.deliver); err != nil {
			return rs, err
		}
		addrs[r.ID] = r.Transport.Addr()
	}
	nodes := make([]*ctlplane.Node, len(rs))
	for i, r := range rs {
		r.Transport.SetPeers(addrs)
		r.Node = ctlplane.NewNode(ctlplane.NodeConfig{
			Raft: ctlplane.RaftConfig{
				ID:    r.ID,
				Peers: peers,
				Seed:  seed + uint64(r.ID)*977,
			},
			TickEvery: tick,
			Transport: r.Transport,
			Apply:     func(data []byte) (any, error) { return r.Server.ApplyCommand(data) },
			Snapshot:  r.Server.SnapshotState,
			Restore:   r.Server.RestoreState,
			Bus:       r.Bus,
			Metrics:   reg,
		})
		nodes[i] = r.Node
		dir.register(r.ID, r.Node, r.Server.Addr())
	}
	// Wait for a first leader so agents don't spend their dial budget on an
	// unelected cluster.
	_, err = ctlplane.WaitLeader(nodes, 10*time.Second)
	return rs, err
}

// ClusterConfig tunes a control-plane emulation.
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

// check rejects a negative field by name; zero keeps its default.
func (c *ClusterConfig) check() error {
	return errors.Join(
		c.EmulationConfig.check(),
		negative("ClusterConfig", "Replicas", c.Replicas),
		negative("ClusterConfig", "TickEvery", c.TickEvery),
	)
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

// ClusterEmulation is ShareBackup's control plane as separate communicating
// processes-in-miniature: Replicas controller replicas, NumAgents switch
// agents keep-aliving against whichever of them currently leads, and NumCS
// circuit-switch services, with consensus, redirects, and failover all riding
// real loopback TCP. Each process has its OWN event bus and (when TraceDir
// is set) its own JSONL trace file; all of them stamp the one process epoch
// (obs.Now), and sbtap stitches the files back into one causal timeline by
// the trace context the wires carry.
type ClusterEmulation struct {
	Replicas []*Replica
	Agents   []*Agent
	CS       []*CSService
	// AgentBus and CSBus are the agents' and circuit switches' per-process
	// buses.
	AgentBus []*obs.Bus
	CSBus    []*obs.Bus

	cfg   ClusterConfig
	sinks procSinks
}

// NewClusterEmulation builds and starts a replica cluster plus its agents.
func NewClusterEmulation(cfg ClusterConfig) (*ClusterEmulation, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	e := &ClusterEmulation{cfg: cfg, sinks: procSinks{dir: cfg.TraceDir}}
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
	ctls := make([]*controller.Controller, cfg.Replicas)
	srvCfgs := make([]ServerConfig, cfg.Replicas)
	for i := range ctls {
		bus, err := e.sinks.newProcBus(fmt.Sprintf("controller-%d", i))
		if err != nil {
			return nil, err
		}
		nw, err := sbnet.New(sbnet.Config{K: cfg.K, N: cfg.N, Tech: circuit.Crosspoint})
		if err != nil {
			return nil, err
		}
		// The shared registry observes replica 0: metric names collide
		// across replicas (the consensus gauges are ID-namespaced, and every
		// replica's land in it).
		reg := cfg.Registry
		if i > 0 {
			reg = obs.NewRegistry()
		}
		ctls[i] = controller.New(nw, controller.Config{ProbeInterval: cfg.Interval, Metrics: reg})
		srvCfgs[i] = ServerConfig{
			Interval:      cfg.Interval,
			MissThreshold: cfg.MissThreshold,
			Obs:           bus,
			CSAddrs:       csAddrs,
		}
	}
	if e.Replicas, err = startReplicas(ctls, srvCfgs, cfg.TickEvery, cfg.Seed, cfg.Registry); err != nil {
		return nil, err
	}
	var serving []string
	for _, r := range e.Replicas {
		serving = append(serving, r.Server.Addr())
	}
	if err := e.startAgents(serving); err != nil {
		return nil, err
	}
	ok = true
	return e, nil
}

// startCS starts the circuit-switch services and returns their addresses.
// They come first: every server dials them at startup.
func (e *ClusterEmulation) startCS() ([]string, error) {
	var addrs []string
	for i := 0; i < e.cfg.NumCS; i++ {
		proc := fmt.Sprintf("cs-%d", i)
		bus, err := e.sinks.newProcBus(proc)
		if err != nil {
			return nil, err
		}
		sw, err := circuit.New(proc, circuit.Crosspoint, e.cfg.K)
		if err != nil {
			return nil, err
		}
		svc, err := NewCSService("127.0.0.1:0", sw)
		if err != nil {
			return nil, err
		}
		svc.SetObserver(bus)
		e.CS = append(e.CS, svc)
		e.CSBus = append(e.CSBus, bus)
		addrs = append(addrs, svc.Addr())
	}
	return addrs, nil
}

// startAgents dials NumAgents agents against the replicas serving at addrs.
// Their switches are active edge switches striped across pods, so
// concurrently injected failures land in distinct failure groups: with N=1
// each group has a single backup, and two failures in one group would leave
// the second unrecoverable.
func (e *ClusterEmulation) startAgents(addrs []string) error {
	ids := agentSwitchIDs(e.Replicas[0].Net, e.cfg.K, e.cfg.NumAgents)
	if len(ids) < e.cfg.NumAgents {
		return fmt.Errorf("ctlnet: emulation has only %d agent slots, want %d", len(ids), e.cfg.NumAgents)
	}
	for _, id := range ids {
		bus, err := e.sinks.newProcBus(fmt.Sprintf("agent-%d", id))
		if err != nil {
			return err
		}
		a, err := DialCluster(addrs, id, e.cfg.Interval)
		if err != nil {
			return err
		}
		a.SetObserver(bus)
		e.Agents = append(e.Agents, a)
		e.AgentBus = append(e.AgentBus, bus)
	}
	return nil
}

// WaitClockSync returns true at once: every emulated process stamps the one
// process epoch, so there are no clocks to sync. It remains only because the
// benchmark's live workloads (benchmarks/live.go) call it; the next change
// to the benchmark drops that call and this method.
func (e *ClusterEmulation) WaitClockSync(time.Duration) bool { return true }

// FailLink makes agent i report the failure of its switch's first up-link,
// as if its local detect.Monitor crossed the miss threshold after the given
// detection latency. The report is traced: the agent's span roots the
// recovery's cross-process trace.
func (e *ClusterEmulation) FailLink(i int, detection time.Duration) error {
	if i < 0 || i >= len(e.Agents) {
		return fmt.Errorf("ctlnet: emulation has no agent %d", i)
	}
	a := e.Agents[i]
	ownPort, agg, aggPort := firstUpLink(e.Replicas[0].Net, a.ID, e.cfg.K)
	return a.ReportLinkFailureDetected(ownPort, agg, aggPort, detection)
}

// TraceFiles lists the per-process JSONL trace files (empty without
// TraceDir).
func (e *ClusterEmulation) TraceFiles() []string { return e.sinks.names() }

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

// Close stops the agents, then the replicas, then the circuit switches, and
// flushes the trace files.
func (e *ClusterEmulation) Close() error {
	for _, a := range e.Agents {
		a.Close()
	}
	for _, r := range e.Replicas {
		r.Kill()
	}
	for _, svc := range e.CS {
		svc.Close()
	}
	return e.sinks.close()
}
