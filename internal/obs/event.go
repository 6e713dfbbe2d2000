// Package obs is the control plane's observability subsystem: a typed event
// bus with pluggable sinks (JSONL, human-readable log, in-memory ring), spans
// that group events into per-recovery timelines with the Section 5.3 phase
// breakdown (detection / report / reconfiguration / total), an atomic
// counter/gauge/histogram registry, and the SLO watchdog that audits every
// recovery against a latency budget.
//
// The virtual-time controller and system, the TCP control plane and its
// consensus replicas all emit through one Bus. Emission is
// zero-allocation-cheap when no sink is attached: every emit site guards
// event construction with Bus.Enabled(), which is a single atomic load.
package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// Kind enumerates the control-plane event taxonomy.
type Kind uint8

const (
	// KindFailureDeclared is a node or link declared failed (threshold
	// crossed).
	KindFailureDeclared Kind = iota
	// KindBackupAssigned is a backup switch chosen for a failed switch.
	KindBackupAssigned
	// KindCircuitReconfigured is one switch-replacement circuit
	// reconfiguration (System.FailNode/FailLink in the model, a circuit
	// switch's control service live); Count is the number of circuit
	// switches touched, Reconfig the parallel reconfiguration latency.
	KindCircuitReconfigured
	// KindTablesPreloaded is a failure-group table pushed to a switch
	// agent (Section 4.3 hot-standby provisioning); Count is bytes.
	KindTablesPreloaded
	// KindRecoveryComplete closes a recovery span; it carries the full
	// phase breakdown (Detection, Report, Reconfig, Total).
	KindRecoveryComplete
	// KindDiagnosisStarted opens an offline-diagnosis round; Count is the
	// number of queued link-failure suspects.
	KindDiagnosisStarted
	// KindDiagnosisFinished closes a diagnosis round; Count is the number
	// of exonerated switches.
	KindDiagnosisFinished
	// KindCircuitSwitchHalted is the Section 5.1 halt: a circuit switch
	// exceeded the link-failure report threshold and recovery is suspended
	// for human intervention.
	KindCircuitSwitchHalted
	// KindLog is a free-form diagnostic line (the ctlnet server routes its
	// Logf output here so sinks serialize it).
	KindLog
	// KindSweepShardDone is one completed shard of an experiment sweep
	// (internal/sweep); Count is the running number of completed shards and
	// Detail names the shard as "<sweep>/<index>".
	KindSweepShardDone
	// KindLeaderElected marks a ctlplane replica winning an election; Switch
	// carries the replica ID and Count the term.
	KindLeaderElected
	// KindLeaderLost marks a ctlplane replica stepping down from leadership
	// (higher term observed, or quorum unreachable); Switch carries the
	// replica ID and Count the term it stepped down in.
	KindLeaderLost
	// KindFailover marks a ctlnet agent redirecting an in-flight request to
	// a different replica after its leader died or answered not-leader;
	// Detail names the new target, Count the retry attempt.
	KindFailover
	numKinds
)

var kindNames = [numKinds]string{
	"failure-declared",
	"backup-assigned",
	"circuit-reconfigured",
	"tables-preloaded",
	"recovery-complete",
	"diagnosis-started",
	"diagnosis-finished",
	"circuit-switch-halted",
	"log",
	"sweep-shard-done",
	"leader-elected",
	"leader-lost",
	"failover",
}

// String names the kind ("failure-declared", "recovery-complete", ...).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind inverts Kind.String.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event kind %q", s)
}

// processStart is the process epoch: every wall-clock event and replicated
// command time in the process is a duration since it, so the emulated
// processes sharing one OS process share one timeline.
var processStart = time.Now()

// Now returns the time since the process epoch.
func Now() time.Duration { return time.Since(processStart) }

// None is the sentinel for "no switch / no port" in event fields.
const None int32 = -1

// Event is one control-plane event. Fields not meaningful for a kind are
// left at their zero value (None for switch/port fields — use NewEvent).
// Timestamps are durations since an epoch: the virtual clock's origin for
// the simulated controller, or the process epoch (Now) for the wall-clock
// control plane (Wall reports which).
type Event struct {
	Kind Kind
	// Seq is a bus-assigned monotonically increasing sequence number; it
	// orders events from emitters that have no clock of their own.
	Seq uint64
	// T is the event timestamp since the epoch; negative means unknown
	// (the emitter has no clock, e.g. the model's circuit reconfigurations).
	T    time.Duration
	Wall bool
	// Span groups the events of one recovery; 0 means no span.
	Span uint64

	// Trace groups the spans of one causal recovery across processes: the
	// switch agent that reported, the controller that recovered, and the
	// circuit-switch agents that reconfigured all stamp the same trace ID
	// (carried in the ctlnet wire frames). 0 means untraced.
	Trace uint64
	// Parent is the span this span descends from (0 for a trace root).
	// Span IDs are per-bus counters, so cross-process parents are
	// qualified by ParentProc.
	Parent uint64
	// ParentProc names the process owning the Parent span; empty means the
	// parent span lives on the same bus (same process).
	ParentProc string
	// Proc names the emitting process ("controller-0", "agent-12", "cs-0",
	// "recovery-crosspoint/3"): the one stream label. The bus stamps it
	// (Bus.SetProc), so a trace that interleaves many buses tells their
	// span ID spaces and Seq streams apart. Empty for an unnamed bus.
	Proc string

	Switch   int32 // subject switch ID (None when n/a)
	Peer     int32 // link peer switch ID
	Backup   int32 // chosen backup switch ID
	Port     int32
	PeerPort int32

	// Count is a kind-specific cardinality: circuit switches touched,
	// table bytes pushed, diagnosis suspects, exonerations.
	Count int32
	// Detail is free-form context: recovery kind ("node"/"link"), halt
	// reason, log line.
	Detail string

	// Phase breakdown, set on KindRecoveryComplete (and Detection on
	// KindFailureDeclared, Reconfig on KindCircuitReconfigured).
	Detection time.Duration
	Report    time.Duration
	Reconfig  time.Duration
	Total     time.Duration
}

// NewEvent returns an Event of the given kind at time t with all switch and
// port fields set to None.
func NewEvent(kind Kind, t time.Duration) Event {
	return Event{Kind: kind, T: t, Switch: None, Peer: None, Backup: None, Port: None, PeerPort: None}
}

// String renders the event human-readably, one line.
func (e Event) String() string {
	var b strings.Builder
	if e.T >= 0 {
		fmt.Fprintf(&b, "[%12v] ", e.T)
	} else {
		b.WriteString("[           -] ")
	}
	b.WriteString(e.Kind.String())
	if e.Proc != "" {
		fmt.Fprintf(&b, " proc=%s", e.Proc)
	}
	if e.Span != 0 {
		fmt.Fprintf(&b, " span=%d", e.Span)
	}
	if e.Trace != 0 {
		fmt.Fprintf(&b, " trace=%x", e.Trace)
	}
	if e.Parent != 0 {
		if e.ParentProc != "" {
			fmt.Fprintf(&b, " parent=%s/%d", e.ParentProc, e.Parent)
		} else {
			fmt.Fprintf(&b, " parent=%d", e.Parent)
		}
	}
	if e.Switch != None {
		fmt.Fprintf(&b, " switch=%d", e.Switch)
	}
	if e.Port != None {
		fmt.Fprintf(&b, " port=%d", e.Port)
	}
	if e.Peer != None {
		fmt.Fprintf(&b, " peer=%d", e.Peer)
	}
	if e.PeerPort != None {
		fmt.Fprintf(&b, " peer_port=%d", e.PeerPort)
	}
	if e.Backup != None {
		fmt.Fprintf(&b, " backup=%d", e.Backup)
	}
	if e.Count != 0 {
		fmt.Fprintf(&b, " count=%d", e.Count)
	}
	if e.Kind == KindRecoveryComplete {
		fmt.Fprintf(&b, " detection=%v report=%v reconfig=%v total=%v",
			e.Detection, e.Report, e.Reconfig, e.Total)
	} else {
		if e.Detection != 0 {
			fmt.Fprintf(&b, " detection=%v", e.Detection)
		}
		if e.Reconfig != 0 {
			fmt.Fprintf(&b, " reconfig=%v", e.Reconfig)
		}
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " %s", e.Detail)
	}
	return b.String()
}

// eventJSON is the stable JSONL wire form of an Event.
type eventJSON struct {
	Kind       string `json:"kind"`
	Seq        uint64 `json:"seq,omitempty"`
	TNs        int64  `json:"t_ns"`
	Wall       bool   `json:"wall,omitempty"`
	Span       uint64 `json:"span,omitempty"`
	Trace      uint64 `json:"trace,omitempty"`
	Parent     uint64 `json:"parent,omitempty"`
	ParentProc string `json:"parent_proc,omitempty"`
	Proc       string `json:"proc,omitempty"`
	Switch     int32  `json:"switch"`
	Peer       int32  `json:"peer"`
	Backup     int32  `json:"backup"`
	Port       int32  `json:"port"`
	PeerPort   int32  `json:"peer_port"`
	Count      int32  `json:"count,omitempty"`
	Detail     string `json:"detail,omitempty"`
	DetNs      int64  `json:"detection_ns,omitempty"`
	RepNs      int64  `json:"report_ns,omitempty"`
	RecNs      int64  `json:"reconfig_ns,omitempty"`
	TotNs      int64  `json:"total_ns,omitempty"`
}

// MarshalJSON renders the event in the JSONL wire form.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{
		Kind: e.Kind.String(), Seq: e.Seq, TNs: int64(e.T), Wall: e.Wall, Span: e.Span,
		Trace: e.Trace, Parent: e.Parent, ParentProc: e.ParentProc, Proc: e.Proc,
		Switch: e.Switch, Peer: e.Peer, Backup: e.Backup, Port: e.Port, PeerPort: e.PeerPort,
		Count: e.Count, Detail: e.Detail,
		DetNs: int64(e.Detection), RepNs: int64(e.Report), RecNs: int64(e.Reconfig), TotNs: int64(e.Total),
	})
}

// UnmarshalJSON parses the JSONL wire form.
func (e *Event) UnmarshalJSON(data []byte) error {
	var j eventJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	kind, err := ParseKind(j.Kind)
	if err != nil {
		return err
	}
	*e = Event{
		Kind: kind, Seq: j.Seq, T: time.Duration(j.TNs), Wall: j.Wall, Span: j.Span,
		Trace: j.Trace, Parent: j.Parent, ParentProc: j.ParentProc, Proc: j.Proc,
		Switch: j.Switch, Peer: j.Peer, Backup: j.Backup, Port: j.Port, PeerPort: j.PeerPort,
		Count: j.Count, Detail: j.Detail,
		Detection: time.Duration(j.DetNs), Report: time.Duration(j.RepNs),
		Reconfig: time.Duration(j.RecNs), Total: time.Duration(j.TotNs),
	}
	return nil
}
