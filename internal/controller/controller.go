// Package controller implements ShareBackup's logically centralized control
// plane (Section 4): keep-alive failure detection, backup allocation and
// circuit reconfiguration for node failures, replace-both-ends handling of
// link failures, offline failure diagnosis over the circuit-switch side-port
// rings, live impersonation bookkeeping, and circuit-switch failure
// thresholds. Consensus among controller replicas lives in internal/ctlplane.
//
// Time is virtual: callers drive the controller with explicit timestamps
// (time.Duration since an epoch), which makes recovery-latency accounting
// (Section 5.3) exact and deterministic. The real-socket control plane in
// internal/ctlnet layers the same logic over TCP.
package controller

import (
	"errors"
	"fmt"
	"time"

	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
	"sharebackup/internal/topo"
)

// Config tunes the control plane.
type Config struct {
	// ProbeInterval is the keep-alive/probing interval. The paper assumes
	// the same probing interval as F10 and Aspen Tree; the default is
	// 1 ms (F10-class fast detection).
	ProbeInterval time.Duration
	// Metrics is the registry the controller resolves its counters and
	// gauges in. Nil means a private registry per controller. Commands
	// pass obs.DefaultRegistry so controller metrics surface on the
	// -debug-addr /varz endpoint alongside fluid telemetry.
	Metrics *obs.Registry
}

const (
	// missThreshold is how many consecutive missed keep-alives declare a
	// node failure.
	missThreshold = 3
	// csReportThreshold is the number of link-failure reports associated
	// with one circuit switch within csReportWindow that triggers a halt
	// and a request for human intervention (Section 5.1).
	csReportThreshold = 3
	// csReportWindow is the sliding window for csReportThreshold.
	csReportWindow = time.Second
)

func (c *Config) setDefaults() {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Millisecond
	}
}

// Recovery records one recovery action and its latency breakdown.
type Recovery struct {
	Kind   string // "node" or "link"
	Failed []sbnet.SwitchID
	Backup []sbnet.SwitchID
	// Detection is the time from the actual failure (or last heartbeat)
	// to the controller noticing.
	Detection time.Duration
	// Comm is the report and reconfiguration-request communication time.
	Comm time.Duration
	// Reconfig is the circuit reconfiguration latency.
	Reconfig time.Duration
}

// Total returns the end-to-end recovery latency.
func (r *Recovery) Total() time.Duration { return r.Detection + r.Comm + r.Reconfig }

// ErrHalted is returned when recovery is suspended pending human
// intervention after a suspected circuit-switch failure.
var ErrHalted = fmt.Errorf("controller: recovery halted, human intervention required")

// haltTrip is the error of the link report that tripped the halt: its
// circuit switch crossed the report threshold (Section 5.1).
type haltTrip struct{ cs csKey }

func (h haltTrip) Error() string {
	return fmt.Sprintf("%v (circuit switch %s exceeded %d reports in %v)", ErrHalted, h.cs, csReportThreshold, csReportWindow)
}

func (h haltTrip) Unwrap() error { return ErrHalted }

// EndPoint names one interface: a physical switch and a port on it.
type EndPoint struct {
	Switch sbnet.SwitchID
	Port   int
}

type csKey struct {
	layer, pod, idx int
}

func (k csKey) String() string { return fmt.Sprintf("CS%d,%d,%d", k.layer, k.pod, k.idx) }

// linkKey names a reported link by its two endpoints, lower first, so both
// ends' reports of one link are one key.
type linkKey [2]EndPoint

func linkOf(a, b EndPoint) linkKey {
	if b.Switch < a.Switch || (b.Switch == a.Switch && b.Port < a.Port) {
		a, b = b, a
	}
	return linkKey{a, b}
}

// csCharge is one link charged against a circuit switch.
type csCharge struct {
	at   time.Duration
	link linkKey
}

// Controller is the ShareBackup control plane over one network.
type Controller struct {
	net *sbnet.Network
	cfg Config

	lastSeen map[sbnet.SwitchID]time.Duration
	halted   bool

	recoveries []Recovery
	csReports  map[csKey][]csCharge

	// pendingDiagnosis holds link-failure suspects awaiting offline
	// diagnosis (Section 4.2).
	pendingDiagnosis []LinkSuspects

	// hostSuspects tracks host-link replacements: if the problem
	// persists, the switch is exonerated and the host flagged.
	flaggedHosts map[int]bool

	diagnosisReconfigs int

	// reg holds the controller's runtime metrics; handles are resolved
	// once here so the recovery path never touches the registry map.
	reg                  *obs.Registry
	mFailovers           *obs.Counter
	mHalts               *obs.Counter
	mBackupPoolExhausted *obs.Counter
}

// LinkSuspects is a pending diagnosis work item: the two suspect interfaces
// of a reported link failure.
type LinkSuspects struct {
	A, B EndPoint
}

// New builds a controller over net.
func New(net *sbnet.Network, cfg Config) *Controller {
	cfg.setDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Controller{
		net:          net,
		cfg:          cfg,
		lastSeen:     make(map[sbnet.SwitchID]time.Duration),
		csReports:    make(map[csKey][]csCharge),
		flaggedHosts: make(map[int]bool),
		reg:          reg,
	}
	c.mFailovers = c.reg.Counter("controller.failovers")
	c.mHalts = c.reg.Counter("controller.halts")
	c.mBackupPoolExhausted = c.reg.Counter("controller.backup_pool_exhausted")
	return c
}

// Metrics returns the controller's counter/gauge registry. The ctlnet
// server merges its own metrics into the same registry for the varz dump.
func (c *Controller) Metrics() *obs.Registry { return c.reg }

// Network returns the controlled network.
func (c *Controller) Network() *sbnet.Network { return c.net }

// Config returns the effective configuration.
func (c *Controller) Config() Config { return c.cfg }

// Halted reports whether recovery is suspended pending human intervention.
func (c *Controller) Halted() bool { return c.halted }

// Recoveries returns the recovery log.
func (c *Controller) Recoveries() []Recovery { return c.recoveries }

// PendingDiagnosis returns how many reported links await offline diagnosis.
func (c *Controller) PendingDiagnosis() int { return len(c.pendingDiagnosis) }

// DiagnosisReconfigs returns circuit reconfigurations spent on offline
// diagnosis so far.
func (c *Controller) DiagnosisReconfigs() int { return c.diagnosisReconfigs }

// FlaggedHosts returns hosts flagged for troubleshooting after a switch
// replacement did not fix their link.
func (c *Controller) FlaggedHosts() []int {
	var out []int
	for h := range c.flaggedHosts {
		out = append(out, h)
	}
	return out
}

// Heartbeat records a keep-alive from a switch: RecoverNode charges the
// time since the last one as the failure's detection latency.
func (c *Controller) Heartbeat(id sbnet.SwitchID, at time.Duration) {
	c.lastSeen[id] = at
}

// RecoverNode fails over a node detected dead at time `at`, whose last
// heartbeat was `lastSeen` ago (used for the detection-latency breakdown).
func (c *Controller) RecoverNode(id sbnet.SwitchID, at time.Duration) (*Recovery, error) {
	if c.halted {
		return nil, ErrHalted
	}
	last, ok := c.lastSeen[id]
	detection := missThreshold * c.cfg.ProbeInterval
	if ok && at-last > 0 {
		detection = at - last
	}
	backup, reconfig, err := c.net.Replace(id)
	if err != nil {
		if errors.Is(err, sbnet.ErrNoBackup) {
			c.mBackupPoolExhausted.Inc()
		}
		return nil, err
	}
	delete(c.lastSeen, id)
	rec := Recovery{
		Kind:      "node",
		Failed:    []sbnet.SwitchID{id},
		Backup:    []sbnet.SwitchID{backup},
		Detection: detection,
		Comm:      2 * CommDelay, // report in, reconfigure out
		Reconfig:  reconfig,
	}
	c.recoveries = append(c.recoveries, rec)
	c.mFailovers.Inc()
	return &c.recoveries[len(c.recoveries)-1], nil
}

// ReportLinkFailure handles a link-failure report from both endpoints
// (Section 4.1): for fast recovery the controller replaces the switches on
// both sides of the link immediately, and queues the pair for offline
// diagnosis. If either failure group has no backup left, the available side
// is still replaced and an error is returned for the other.
//
// The link is also charged, once per window, against the circuit switch
// carrying it; crossing the report threshold within the window halts
// recovery (suspected circuit-switch failure, Section 5.1).
//
// The detection latency in the recovery record is the probing interval; use
// ReportLinkFailureDetected when the actual measured detection delay (e.g.
// from a detect.Monitor) is known.
func (c *Controller) ReportLinkFailure(a, b EndPoint, at time.Duration) (*Recovery, error) {
	return c.ReportLinkFailureDetected(a, b, at, 0)
}

// ReportLinkFailureDetected is ReportLinkFailure with the detection latency
// the reporter measured (0 or less: none, so the probing interval).
func (c *Controller) ReportLinkFailureDetected(a, b EndPoint, at, detection time.Duration) (*Recovery, error) {
	if detection <= 0 {
		detection = c.cfg.ProbeInterval
	}
	if c.halted {
		return nil, ErrHalted
	}
	if key, ok := c.circuitSwitchOf(a, b); ok {
		if c.chargeCSReport(key, linkOf(a, b), at) {
			c.halted = true
			c.mHalts.Inc()
			return nil, haltTrip{key}
		}
	}
	rec := Recovery{
		Kind:      "link",
		Detection: detection, // endpoint-to-endpoint probing
		Comm:      2 * CommDelay,
	}
	var firstErr error
	for _, ep := range []EndPoint{a, b} {
		backup, reconfig, err := c.net.Replace(ep.Switch)
		if err != nil {
			if errors.Is(err, sbnet.ErrNoBackup) {
				c.mBackupPoolExhausted.Inc()
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("controller: link recovery for %s: %w", c.net.Name(ep.Switch), err)
			}
			continue
		}
		rec.Failed = append(rec.Failed, ep.Switch)
		rec.Backup = append(rec.Backup, backup)
		if reconfig > rec.Reconfig {
			rec.Reconfig = reconfig
		}
	}
	if len(rec.Failed) > 0 {
		c.recoveries = append(c.recoveries, rec)
		c.pendingDiagnosis = append(c.pendingDiagnosis, LinkSuspects{A: a, B: b})
		return &c.recoveries[len(c.recoveries)-1], firstErr
	}
	return nil, firstErr
}

// circuitSwitchOf locates the circuit switch a link between the two
// endpoints traverses. Edge-agg links traverse CS_{2,pod,j} where j is the
// edge's up-port; agg-core links traverse CS_{3,pod,t} where t is the agg's
// up-port. Host-edge endpoints map to CS_{1,pod,j}.
func (c *Controller) circuitSwitchOf(a, b EndPoint) (csKey, bool) {
	sa, sb := c.net.Switch(a.Switch), c.net.Switch(b.Switch)
	half := c.net.K() / 2
	up := func(ep EndPoint) (int, bool) {
		p := ep.Port - half
		if p < 0 || p >= half {
			return 0, false
		}
		return p, true
	}
	switch {
	case sa.Kind == topo.KindEdge && sb.Kind == topo.KindAgg:
		if j, ok := up(a); ok {
			return csKey{2, c.net.Group(sa.Group).Pod, j}, true
		}
	case sa.Kind == topo.KindAgg && sb.Kind == topo.KindEdge:
		if j, ok := up(b); ok {
			return csKey{2, c.net.Group(sb.Group).Pod, j}, true
		}
	case sa.Kind == topo.KindAgg && sb.Kind == topo.KindCore:
		if t, ok := up(a); ok {
			return csKey{3, c.net.Group(sa.Group).Pod, t}, true
		}
	case sa.Kind == topo.KindCore && sb.Kind == topo.KindAgg:
		if t, ok := up(b); ok {
			return csKey{3, c.net.Group(sb.Group).Pod, t}, true
		}
	}
	return csKey{}, false
}

// chargeCSReport charges a reported link against a circuit switch and
// reports whether the threshold is now exceeded. A link already charged
// inside the window is not charged again: its other end's report (§4.1 has
// both ends report) and a resent report describe the same failure. A
// replaced link's position fails anew under new switch IDs, so it counts.
func (c *Controller) chargeCSReport(key csKey, link linkKey, at time.Duration) bool {
	reports := c.csReports[key]
	kept := reports[:0]
	charged := false
	for _, r := range reports {
		if at-r.at <= csReportWindow {
			kept = append(kept, r)
			charged = charged || r.link == link
		}
	}
	if !charged {
		kept = append(kept, csCharge{at: at, link: link})
	}
	c.csReports[key] = kept
	return len(kept) > csReportThreshold
}

// ResumeAfterIntervention clears the halt after a human has repaired or
// replaced the suspect circuit switch and the controller has re-pushed the
// authoritative configuration (Network.SyncCircuit).
func (c *Controller) ResumeAfterIntervention() {
	c.halted = false
	c.csReports = make(map[csKey][]csCharge)
}

// HandleHostLinkFailure implements Section 4.2's host-link policy: offline
// diagnosis cannot run against a host (all hosts are in use), so the switch
// is assumed at fault and replaced. If the problem persists afterwards — the
// oracle being whether the host-side interface was actually the broken one —
// the switch is exonerated (released back to the backup pool, marked
// healthy) and the host is flagged for troubleshooting. The returned bool
// reports whether the host was flagged.
func (c *Controller) HandleHostLinkFailure(edge sbnet.SwitchID, host int, hostAtFault bool) (bool, error) {
	if c.halted {
		return false, ErrHalted
	}
	backup, reconfig, err := c.net.Replace(edge)
	if err != nil {
		if errors.Is(err, sbnet.ErrNoBackup) {
			c.mBackupPoolExhausted.Inc()
		}
		return false, err
	}
	rec := Recovery{
		Kind:      "link",
		Failed:    []sbnet.SwitchID{edge},
		Backup:    []sbnet.SwitchID{backup},
		Detection: c.cfg.ProbeInterval,
		Comm:      2 * CommDelay,
		Reconfig:  reconfig,
	}
	c.recoveries = append(c.recoveries, rec)
	if hostAtFault {
		// Replacement did not fix the link: mark the switch healthy
		// and trouble-shoot the host.
		if err := c.net.Release(edge); err != nil {
			return false, err
		}
		c.flaggedHosts[host] = true
		return true, nil
	}
	return false, nil
}

// CommDelay is the one-way switch-to-controller (and
// controller-to-circuit-switch) communication delay. The paper argues an
// efficient controller keeps this sub-millisecond.
const CommDelay = 100 * time.Microsecond

// SDNRuleUpdateLatency is the forwarding-rule modification time the paper
// cites for SDN switches (~1 ms, He et al., SOSR'15); rerouting-based
// recovery pays at least one of these.
const SDNRuleUpdateLatency = time.Millisecond

// RerouteRecoveryLatency returns the recovery latency of an F10/Aspen-class
// local-rerouting scheme under this controller's probing interval: detection
// plus one forwarding-rule update. Used by the Section 5.3 comparison.
func (c *Controller) RerouteRecoveryLatency() time.Duration {
	return c.cfg.ProbeInterval + SDNRuleUpdateLatency
}
