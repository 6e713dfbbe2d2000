package ctlnet

import (
	"fmt"
	"os"
	"path/filepath"
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
}

func newClusterDirectory() *clusterDirectory {
	return &clusterDirectory{
		nodes:   make(map[int]*ctlplane.Node),
		serving: make(map[int]string),
	}
}

func (d *clusterDirectory) register(id int, node *ctlplane.Node, servingAddr string) {
	d.mu.Lock()
	d.nodes[id] = node
	d.serving[id] = servingAddr
	d.mu.Unlock()
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
	r.Node.Stop()
	r.Server.Close()
	r.Transport.Close()
}

// ClusterConfig tunes a replicated-controller emulation.
type ClusterConfig struct {
	EmulationConfig
	// Replicas is the cluster size. Default 3.
	Replicas int
	// TickEvery is one consensus logical tick. Default 10 ms: the first
	// election takes one tick (replica 0 campaigns at once) and later ones
	// — a killed leader, a lost quorum — a randomized 10–20 ticks, so they
	// converge in ~100–200 ms and a leader-kill test completes quickly.
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
	Replicas []*Replica
	Agents   []*Agent
	CS       []*CSService

	AgentBus []*obs.Bus
	CSBus    []*obs.Bus

	cfg   ClusterConfig
	dir   *clusterDirectory
	sinks procSinks
}

// NewClusterEmulation builds and starts a replica cluster plus its agents.
func NewClusterEmulation(cfg ClusterConfig) (*ClusterEmulation, error) {
	cfg.setDefaults()
	e := &ClusterEmulation{cfg: cfg, dir: newClusterDirectory(), sinks: procSinks{dir: cfg.TraceDir}}
	ok := false
	defer func() {
		if !ok {
			e.Close()
		}
	}()

	// Circuit-switch processes first: every replica dials them, but only
	// the leader mirrors recoveries (Server.applyReplicated gates on it).
	var csAddrs []string
	for i := 0; i < cfg.NumCS; i++ {
		proc := fmt.Sprintf("cs-%d", i)
		bus, err := e.sinks.newProcBus(proc)
		if err != nil {
			return nil, err
		}
		sw, err := circuit.New(proc, circuit.Crosspoint, cfg.K)
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
		csAddrs = append(csAddrs, svc.Addr())
	}

	// Replicas: server + controller stack first (each its own process bus
	// and epoch), then the consensus mesh once every server address exists.
	peers := make([]int, cfg.Replicas)
	for i := range peers {
		peers[i] = i
	}
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
		r := r
		tr, err := ctlplane.NewTCPTransport(r.ID, map[int]string{r.ID: "127.0.0.1:0"}, func(m ctlplane.Message) {
			if n := e.dir.node(m.To); n != nil {
				n.Deliver(m)
			}
		})
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

	// Switch agents, striped across pods exactly like the solo emulation.
	var serving []string
	for _, r := range e.Replicas {
		serving = append(serving, r.Server.Addr())
	}
	ids := agentSwitchIDs(e.Replicas[0].Net, cfg.K, cfg.NumAgents)
	if len(ids) < cfg.NumAgents {
		return nil, fmt.Errorf("ctlnet: cluster emulation has only %d agent slots, want %d", len(ids), cfg.NumAgents)
	}
	for _, id := range ids {
		proc := fmt.Sprintf("agent-%d", id)
		bus, err := e.sinks.newProcBus(proc)
		if err != nil {
			return nil, err
		}
		a, err := DialCluster(serving, id, cfg.Interval)
		if err != nil {
			return nil, err
		}
		a.SetObserver(bus)
		e.Agents = append(e.Agents, a)
		e.AgentBus = append(e.AgentBus, bus)
	}
	ok = true
	return e, nil
}

// Leader polls until one replica reports leadership, returning it.
func (e *ClusterEmulation) Leader(timeout time.Duration) (*Replica, error) {
	deadline := time.Now().Add(timeout)
	for {
		for _, r := range e.Replicas {
			if r.Node != nil && r.Node.IsLeader() {
				return r, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("ctlnet: no replica led within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
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

// WaitClockSync blocks until every agent has a clock-offset measurement.
func (e *ClusterEmulation) WaitClockSync(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		synced := 0
		for _, a := range e.Agents {
			if _, ok := a.ClockOffset(); ok {
				synced++
			}
		}
		if synced == len(e.Agents) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// FailLink makes agent i report its switch's first up-link as failed, with
// the given measured detection latency (see Emulation.FailLink).
func (e *ClusterEmulation) FailLink(i int, detection time.Duration) error {
	if i < 0 || i >= len(e.Agents) {
		return fmt.Errorf("ctlnet: cluster emulation has no agent %d", i)
	}
	a := e.Agents[i]
	ownPort, agg, aggPort := firstUpLink(e.Replicas[0].Net, a.ID, e.cfg.K)
	return a.ReportLinkFailureDetected(ownPort, agg, aggPort, detection)
}

// TraceFiles lists the per-process JSONL trace files (empty without
// TraceDir).
func (e *ClusterEmulation) TraceFiles() []string { return e.sinks.names() }

// Close stops agents, replicas, and circuit switches, and flushes traces.
func (e *ClusterEmulation) Close() error {
	for _, a := range e.Agents {
		a.Close()
	}
	for _, r := range e.Replicas {
		if r.Node != nil {
			r.Node.Stop()
		}
		r.Server.Close()
		if r.Transport != nil {
			r.Transport.Close()
		}
	}
	for _, svc := range e.CS {
		svc.Close()
	}
	return e.sinks.close()
}

// procSinks owns the per-process trace buses' JSONL file sinks, shared by
// both emulation flavors.
type procSinks struct {
	dir   string
	files []*os.File
	pairs []struct {
		bus  *obs.Bus
		sink obs.Sink
	}
}

// newProcBus builds one emulated process' named bus, attaching a JSONL
// file sink under dir when configured.
func (p *procSinks) newProcBus(proc string) (*obs.Bus, error) {
	bus := &obs.Bus{}
	bus.SetProc(proc)
	if p.dir != "" {
		if err := os.MkdirAll(p.dir, 0o755); err != nil {
			return nil, err
		}
		f, err := os.Create(filepath.Join(p.dir, proc+".jsonl"))
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
		sink := obs.NewJSONLSink(f)
		bus.Attach(sink)
		p.pairs = append(p.pairs, struct {
			bus  *obs.Bus
			sink obs.Sink
		}{bus, sink})
	}
	return bus, nil
}

func (p *procSinks) names() []string {
	var out []string
	for _, f := range p.files {
		out = append(out, f.Name())
	}
	return out
}

func (p *procSinks) close() error {
	for _, s := range p.pairs {
		s.bus.Detach(s.sink)
	}
	var err error
	for _, f := range p.files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
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
