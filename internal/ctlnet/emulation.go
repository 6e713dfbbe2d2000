package ctlnet

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
)

// EmulationConfig tunes a multi-process control-plane emulation.
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
	// TraceDir, when set, receives one JSONL trace file per process
	// (controller.jsonl, agent-<id>.jsonl, cs-<i>.jsonl) — the input set
	// for sbtap -stitch.
	TraceDir string
	// Registry collects every process' metrics. Nil builds a private one.
	Registry *obs.Registry
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

// procs is what both emulations share: the circuit-switch services and the
// switch agents, each process with its OWN event bus, its OWN epoch, and
// (when TraceDir is set) its own JSONL trace file. The controller side — one
// server, or a replica cluster — belongs to the embedding type.
type procs struct {
	Agents []*Agent
	CS     []*CSService
	// AgentBus and CSBus are the agents' and circuit switches' per-process
	// buses.
	AgentBus []*obs.Bus
	CSBus    []*obs.Bus

	cfg   EmulationConfig
	model *sbnet.Network // agents' switches and link targets are read from it
	sinks procSinks
}

// startCS starts the circuit-switch services and returns their addresses.
// They come first: every server dials them at startup.
func (p *procs) startCS() ([]string, error) {
	var addrs []string
	for i := 0; i < p.cfg.NumCS; i++ {
		proc := fmt.Sprintf("cs-%d", i)
		bus, err := p.sinks.newProcBus(proc)
		if err != nil {
			return nil, err
		}
		sw, err := circuit.New(proc, circuit.Crosspoint, p.cfg.K)
		if err != nil {
			return nil, err
		}
		svc, err := NewCSService("127.0.0.1:0", sw)
		if err != nil {
			return nil, err
		}
		svc.SetObserver(bus)
		p.CS = append(p.CS, svc)
		p.CSBus = append(p.CSBus, bus)
		addrs = append(addrs, svc.Addr())
	}
	return addrs, nil
}

// startAgents dials NumAgents agents against the controllers serving at
// addrs. Their switches are active edge switches striped across pods, so
// concurrently injected failures land in distinct failure groups: with N=1
// each group has a single backup, and two failures in one group would leave
// the second unrecoverable.
func (p *procs) startAgents(addrs []string) error {
	ids := agentSwitchIDs(p.model, p.cfg.K, p.cfg.NumAgents)
	if len(ids) < p.cfg.NumAgents {
		return fmt.Errorf("ctlnet: emulation has only %d agent slots, want %d", len(ids), p.cfg.NumAgents)
	}
	for _, id := range ids {
		bus, err := p.sinks.newProcBus(fmt.Sprintf("agent-%d", id))
		if err != nil {
			return err
		}
		a, err := DialCluster(addrs, id, p.cfg.Interval)
		if err != nil {
			return err
		}
		a.SetObserver(bus)
		p.Agents = append(p.Agents, a)
		p.AgentBus = append(p.AgentBus, bus)
	}
	return nil
}

// WaitClockSync blocks until every agent has at least one clock-offset
// measurement to the controller, or the timeout expires.
func (p *procs) WaitClockSync(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		synced := 0
		for _, a := range p.Agents {
			if _, ok := a.ClockOffset(); ok {
				synced++
			}
		}
		if synced == len(p.Agents) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// FailLink makes agent i report the failure of its switch's first up-link,
// as if its local detect.Monitor crossed the miss threshold after the given
// detection latency. The report is traced: the agent's span roots the
// recovery's cross-process trace.
func (p *procs) FailLink(i int, detection time.Duration) error {
	if i < 0 || i >= len(p.Agents) {
		return fmt.Errorf("ctlnet: emulation has no agent %d", i)
	}
	a := p.Agents[i]
	ownPort, agg, aggPort := firstUpLink(p.model, a.ID, p.cfg.K)
	return a.ReportLinkFailureDetected(ownPort, agg, aggPort, detection)
}

// TraceFiles lists the per-process JSONL trace files (empty without
// TraceDir).
func (p *procs) TraceFiles() []string { return p.sinks.names() }

// shutdown stops the agents, then the controllers (stopControllers), then
// the circuit switches, and flushes the trace files.
func (p *procs) shutdown(stopControllers func() error) error {
	for _, a := range p.Agents {
		a.Close()
	}
	err := stopControllers()
	for _, svc := range p.CS {
		svc.Close()
	}
	if cerr := p.sinks.close(); err == nil {
		err = cerr
	}
	return err
}

// Emulation is ShareBackup's control plane as separate communicating
// processes-in-miniature: a controller server, switch agents, and
// circuit-switch services, each with its own bus and epoch — connected only
// by TCP. Nothing shares a clock: the trace files are stitched back into one
// causal timeline by sbtap via the clock-sync events the wires carry.
type Emulation struct {
	procs
	Net    *sbnet.Network
	Ctl    *controller.Controller
	Server *Server
	// ServerBus is the controller process' bus.
	ServerBus *obs.Bus
}

// NewEmulation builds and starts the emulation.
func NewEmulation(cfg EmulationConfig) (*Emulation, error) {
	cfg.setDefaults()
	e := &Emulation{procs: procs{cfg: cfg, sinks: procSinks{dir: cfg.TraceDir}}}
	ok := false
	defer func() {
		if !ok {
			e.Close()
		}
	}()

	nw, err := sbnet.New(sbnet.Config{K: cfg.K, N: cfg.N, Tech: circuit.Crosspoint})
	if err != nil {
		return nil, err
	}
	e.Net, e.model = nw, nw
	csAddrs, err := e.startCS()
	if err != nil {
		return nil, err
	}
	if e.ServerBus, err = e.sinks.newProcBus("controller"); err != nil {
		return nil, err
	}
	e.Ctl = controller.New(nw, controller.Config{
		ProbeInterval: cfg.Interval,
		Metrics:       cfg.Registry,
	})
	e.Ctl.SetObserver(e.ServerBus)
	e.Server, err = NewServer("127.0.0.1:0", e.Ctl, ServerConfig{
		Interval:      cfg.Interval,
		MissThreshold: cfg.MissThreshold,
		Obs:           e.ServerBus,
		CSAddrs:       csAddrs,
	})
	if err != nil {
		return nil, err
	}
	if err := e.startAgents([]string{e.Server.Addr()}); err != nil {
		return nil, err
	}
	ok = true
	return e, nil
}

// Close stops every emulated process and flushes the trace files.
func (e *Emulation) Close() error {
	return e.shutdown(func() error {
		if e.Server == nil {
			return nil
		}
		return e.Server.Close()
	})
}

// procSinks owns the per-process trace buses' JSONL file sinks.
type procSinks struct {
	dir    string
	files  []*os.File
	detach []func()
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
		p.detach = append(p.detach, func() { bus.Detach(sink) })
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
	for _, detach := range p.detach {
		detach()
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
