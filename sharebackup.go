// Package sharebackup is the public API of this reproduction of
// "Stop Rerouting! Enabling ShareBackup for Failure Recovery in Data Center
// Networks" (Xia, Huang, Ng — HotNets 2017).
//
// ShareBackup replaces rerouting-based failure recovery in fat-tree data
// center networks with sharable backup: every group of k/2 packet switches
// (a failure group) shares n spare switches through small circuit switches,
// so a failed switch is physically replaced — restoring full bandwidth with
// no path dilation — instead of being routed around.
//
// The package wires together the building blocks in internal/:
//
//	topo        fat-tree / F10 topologies and paths
//	circuit     circuit-switch crossbars
//	sbnet       the ShareBackup physical architecture (Section 3)
//	routing     two-level tables, VLAN impersonation, ECMP, rerouting
//	fluid       max-min fair flow-level simulator
//	coflow      coflow workloads (trace parser + synthetic generator)
//	failure     failure injection and availability arithmetic
//	controller  the control plane (Section 4)
//	ctlnet      the control plane over real TCP sockets
//	cost        the cost model (Section 5.2)
//
// and exposes the experiment harness that regenerates every figure and
// table of the paper (see EXPERIMENTS.md).
package sharebackup

import (
	"fmt"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/controller"
	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
)

// Re-exported names so typical callers need only this package.
type (
	// SwitchID names a physical switch.
	SwitchID = sbnet.SwitchID
	// Recovery is one recovery action with its latency breakdown.
	Recovery = controller.Recovery
	// EndPoint names a switch interface in failure reports.
	EndPoint = controller.EndPoint
	// Technology selects the circuit-switch implementation.
	Technology = circuit.Technology
)

// Circuit-switch technologies (Section 5.2's two price points).
const (
	Crosspoint = circuit.Crosspoint
	MEMS2D     = circuit.MEMS2D
)

// technologies lists the technologies the Section 5.3 studies
// (RecoveryLatency, RunRecoveryBench, TransientStudy) build a fabric in
// each of, so a study's k and n must fit every one's port limit.
var technologies = []Technology{Crosspoint, MEMS2D}

// CheckEveryTechnology rejects a k and n that Config.Check rejects in any
// technology the Section 5.3 studies build.
func CheckEveryTechnology(k, n int) error {
	for _, tech := range technologies {
		if err := (Config{K: k, N: n, Tech: tech}).Check(); err != nil {
			return err
		}
	}
	return nil
}

// WriteWiring renders a wiring manifest as "from -> to" lines (re-exported
// for the sbwire tool and downstream deployment scripts).
var WriteWiring = sbnet.WriteWiring

// Config parameterizes a ShareBackup deployment.
type Config struct {
	// K is the fat-tree parameter (even, >= 4).
	K int
	// N is the number of backup switches per failure group.
	N int
	// Tech is the circuit-switch technology (default Crosspoint).
	Tech Technology
	// Obs is the event bus the system's recoveries emit structured
	// events on (see internal/obs). Defaults to obs.Default, the
	// process-wide bus the commands' -trace/-events flags attach sinks
	// to; emission costs one atomic load when no sink is attached.
	Obs *obs.Bus
	// Metrics is the registry the controller resolves its counters and
	// gauges in. Nil keeps a private registry per system; commands pass
	// obs.DefaultRegistry so the -debug-addr /varz endpoint sees
	// controller metrics.
	Metrics *obs.Registry
}

// Check rejects a K that breaks the fat-tree rule, a negative N, or a fabric
// whose circuit switches need more ports per side than Tech scales to.
func (c Config) Check() error { return sbnet.Config{K: c.K, N: c.N, Tech: c.Tech}.Check() }

// System bundles a ShareBackup network with its logically centralized
// controller: a running deployment.
type System struct {
	Network    *sbnet.Network
	Controller *controller.Controller
	// bus receives the system's recovery and diagnosis events, on the
	// virtual clock.
	bus *obs.Bus
}

// New builds a ShareBackup system.
func New(cfg Config) (*System, error) {
	net, err := sbnet.New(sbnet.Config{K: cfg.K, N: cfg.N, Tech: cfg.Tech})
	if err != nil {
		return nil, err
	}
	bus := cfg.Obs
	if bus == nil {
		bus = obs.Default
	}
	return &System{
		Network:    net,
		Controller: controller.New(net, controller.Config{Metrics: cfg.Metrics}),
		bus:        bus,
	}, nil
}

// FailNode injects a node failure and runs recovery, returning the recovery
// record. It is the one-call convenience over InjectNodeFailure +
// RecoverNode for examples and experiments.
func (s *System) FailNode(id SwitchID, at time.Duration) (*Recovery, error) {
	s.Network.InjectNodeFailure(id)
	rec, err := s.Controller.RecoverNode(id, at)
	s.trace(controller.Attempt{Kind: "node", A: EndPoint{Switch: id}, At: at, Rec: rec, Err: err})
	if err != nil {
		return nil, err
	}
	if err := s.Network.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("sharebackup: invariants after recovery: %w", err)
	}
	return rec, nil
}

// trace renders one recovery attempt on the system's bus, on the virtual
// clock: a recovery's report round trip and circuit reconfiguration follow
// its declaration at a.At, and each replacement re-points k circuit
// switches (k/2 on each side at edge and aggregation, one per pod at the
// core).
func (s *System) trace(a controller.Attempt) {
	if a.Rec != nil {
		a.Report = a.Rec.Comm
		a.Done = a.At + a.Rec.Comm + a.Rec.Reconfig
	}
	a.Circuits = s.Network.K()
	controller.Emit(s.bus, obs.TraceContext{}, a)
}

// FailLink injects a link failure (breaking the interface at end a) and
// runs the replace-both-ends recovery of Section 4.1.
func (s *System) FailLink(a, b EndPoint, at time.Duration) (*Recovery, error) {
	if err := s.Network.InjectPortFailure(a.Switch, a.Port); err != nil {
		return nil, err
	}
	rec, err := s.Controller.ReportLinkFailure(a, b, at)
	// One side may be replaced when the other fails: that is a recovery too.
	s.trace(controller.Attempt{Kind: "link", A: a, B: b, At: at, Detection: s.Controller.Config().ProbeInterval, Rec: rec, Err: err})
	if err != nil {
		return nil, err
	}
	if err := s.Network.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("sharebackup: invariants after recovery: %w", err)
	}
	return rec, nil
}

// RunDiagnosis runs the controller's offline diagnosis of the reported links
// (Section 4.2, Controller.RunDiagnosis) between a diagnosis-started event
// (Count: the links queued) and a diagnosis-finished one (Count: the
// switches exonerated).
func (s *System) RunDiagnosis() ([]controller.DiagnosisResult, error) {
	ctl := s.Controller
	reconfigs := ctl.DiagnosisReconfigs()
	if s.bus.Enabled() {
		ev := obs.NewEvent(obs.KindDiagnosisStarted, -1)
		ev.Count = int32(ctl.PendingDiagnosis())
		s.bus.Emit(ev)
	}
	results, err := ctl.RunDiagnosis()
	if err != nil || !s.bus.Enabled() {
		return results, err
	}
	ev := obs.NewEvent(obs.KindDiagnosisFinished, -1)
	for _, r := range results {
		if r.Exonerated {
			ev.Count++
		}
	}
	ev.Detail = fmt.Sprintf("%d probes, %d reconfigs", len(results), ctl.DiagnosisReconfigs()-reconfigs)
	s.bus.Emit(ev)
	return results, nil
}
