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
	// Obs is the event bus the controller and network emit structured
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

// System bundles a ShareBackup network with its logically centralized
// controller: a running deployment.
type System struct {
	Network    *sbnet.Network
	Controller *controller.Controller
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
	net.SetObserver(bus)
	ctl := controller.New(net, controller.Config{Metrics: cfg.Metrics})
	ctl.SetObserver(bus)
	return &System{
		Network:    net,
		Controller: ctl,
	}, nil
}

// FailNode injects a node failure and runs recovery, returning the recovery
// record. It is the one-call convenience over InjectNodeFailure +
// RecoverNode for examples and experiments.
func (s *System) FailNode(id SwitchID, at time.Duration) (*Recovery, error) {
	s.Network.InjectNodeFailure(id)
	rec, err := s.Controller.RecoverNode(id, at)
	if err != nil {
		return nil, err
	}
	if err := s.Network.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("sharebackup: invariants after recovery: %w", err)
	}
	return rec, nil
}

// FailLink injects a link failure (breaking the interface at end a) and
// runs the replace-both-ends recovery of Section 4.1.
func (s *System) FailLink(a, b EndPoint, at time.Duration) (*Recovery, error) {
	if err := s.Network.InjectPortFailure(a.Switch, a.Port); err != nil {
		return nil, err
	}
	rec, err := s.Controller.ReportLinkFailure(a, b, at)
	if err != nil {
		return nil, err
	}
	if err := s.Network.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("sharebackup: invariants after recovery: %w", err)
	}
	return rec, nil
}
