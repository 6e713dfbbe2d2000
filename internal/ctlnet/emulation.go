package ctlnet

import (
	"fmt"
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
	// SLOBudget, when positive, attaches an SLO watchdog to the controller
	// bus auditing every recovery against it.
	SLOBudget time.Duration
	// FlightRecorder attaches a flight recorder to the controller bus,
	// dumping bundles into FlightDir on anomalies (SLO breach when
	// SLOBudget is set, keep-alive gaps, ring-drop bursts).
	FlightRecorder bool
	// FlightDir is where flight-recorder bundles land. Empty resolves
	// through obs.DefaultFlightDir.
	FlightDir string
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

// Emulation is ShareBackup's control plane as separate communicating
// processes-in-miniature: a controller server, switch agents, and
// circuit-switch services, each with its OWN event bus, its OWN epoch, and
// (when TraceDir is set) its own JSONL trace file — connected only by TCP.
// Nothing shares a clock: the trace files are stitched back into one causal
// timeline by sbtap via the clock-sync events the wires carry.
type Emulation struct {
	Net      *sbnet.Network
	Ctl      *controller.Controller
	Server   *Server
	Agents   []*Agent
	CS       []*CSService
	Watchdog *obs.SLOWatchdog
	Flight   *obs.FlightRecorder

	// ServerBus is the controller process' bus; AgentBus and CSBus are the
	// per-process buses of the other emulated processes.
	ServerBus *obs.Bus
	AgentBus  []*obs.Bus
	CSBus     []*obs.Bus

	cfg   EmulationConfig
	sinks procSinks
}

// NewEmulation builds and starts the emulation.
func NewEmulation(cfg EmulationConfig) (*Emulation, error) {
	cfg.setDefaults()
	e := &Emulation{cfg: cfg, sinks: procSinks{dir: cfg.TraceDir}}
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
	e.Net = nw

	// Circuit-switch processes first: the server dials them at startup.
	var csAddrs []string
	for i := 0; i < cfg.NumCS; i++ {
		proc := fmt.Sprintf("cs-%d", i)
		bus, err := e.newProcBus(proc)
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

	// The controller process.
	serverBus, err := e.newProcBus("controller")
	if err != nil {
		return nil, err
	}
	e.ServerBus = serverBus
	if cfg.FlightRecorder {
		e.Flight = obs.NewFlightRecorder(obs.FlightConfig{
			Dir:                   obs.DefaultFlightDir(cfg.FlightDir),
			SLOBudget:             cfg.SLOBudget,
			KeepAliveGapThreshold: 3,
			DropBurstThreshold:    1024,
			Registry:              cfg.Registry,
		})
		e.Flight.Attach(serverBus)
	}
	if cfg.SLOBudget > 0 {
		e.Watchdog = obs.NewSLOWatchdog(obs.SLOConfig{
			Budget:   cfg.SLOBudget,
			Registry: cfg.Registry,
		})
		serverBus.Attach(e.Watchdog)
	}
	e.Ctl = controller.New(nw, controller.Config{
		ProbeInterval: cfg.Interval,
		Metrics:       cfg.Registry,
	})
	e.Ctl.SetObserver(serverBus)
	e.Server, err = NewServer("127.0.0.1:0", e.Ctl, ServerConfig{
		Interval:      cfg.Interval,
		MissThreshold: cfg.MissThreshold,
		Obs:           serverBus,
		CSAddrs:       csAddrs,
	})
	if err != nil {
		return nil, err
	}

	// Switch-agent processes, drawn from edge-group actives pod by pod.
	ids := e.agentSwitches(cfg.NumAgents)
	if len(ids) < cfg.NumAgents {
		return nil, fmt.Errorf("ctlnet: emulation has only %d agent slots, want %d", len(ids), cfg.NumAgents)
	}
	for _, id := range ids {
		proc := fmt.Sprintf("agent-%d", id)
		bus, err := e.newProcBus(proc)
		if err != nil {
			return nil, err
		}
		a, err := Dial(e.Server.Addr(), id, cfg.Interval)
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

// newProcBus builds one emulated process' named bus, attaching a JSONL file
// sink under TraceDir when configured.
func (e *Emulation) newProcBus(proc string) (*obs.Bus, error) {
	return e.sinks.newProcBus(proc)
}

// agentSwitches picks n active edge switches striped across pods, so that
// concurrently injected failures land in distinct failure groups: with N=1
// each group has a single backup, and two failures in one group would leave
// the second unrecoverable.
func (e *Emulation) agentSwitches(n int) []sbnet.SwitchID {
	return agentSwitchIDs(e.Net, e.cfg.K, n)
}

// WaitClockSync blocks until every agent has at least one clock-offset
// measurement to the controller, or the timeout expires.
func (e *Emulation) WaitClockSync(timeout time.Duration) bool {
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

// FailLink makes agent i report the failure of its switch's first up-link,
// as if its local detect.Monitor crossed the miss threshold after the given
// detection latency. The report is traced: the agent's span roots the
// recovery's cross-process trace.
func (e *Emulation) FailLink(i int, detection time.Duration) error {
	if i < 0 || i >= len(e.Agents) {
		return fmt.Errorf("ctlnet: emulation has no agent %d", i)
	}
	a := e.Agents[i]
	ownPort, agg, aggPort := firstUpLink(e.Net, a.ID, e.cfg.K)
	return a.ReportLinkFailureDetected(ownPort, agg, aggPort, detection)
}

// TraceFiles lists the per-process JSONL trace files (empty without
// TraceDir).
func (e *Emulation) TraceFiles() []string { return e.sinks.names() }

// Close stops every emulated process and flushes the trace files.
func (e *Emulation) Close() error {
	for _, a := range e.Agents {
		a.Close()
	}
	var err error
	if e.Server != nil {
		err = e.Server.Close()
	}
	for _, svc := range e.CS {
		svc.Close()
	}
	if e.Flight != nil {
		e.ServerBus.Detach(e.Flight)
		e.Flight.Close() // drains pending dumps before trace files close
	}
	if cerr := e.sinks.close(); err == nil {
		err = cerr
	}
	return err
}
