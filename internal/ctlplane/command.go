package ctlplane

import (
	"encoding/json"
	"fmt"
)

// CmdKind enumerates the replicated controller state mutations.
type CmdKind uint8

const (
	// CmdRecoverNode replaces a dead switch with a backup.
	CmdRecoverNode CmdKind = 1
	// CmdRecoverLink replaces both endpoints of a failed link.
	CmdRecoverLink CmdKind = 2
	// Kind 3 was a batch of sub-commands in one entry; it is retired, never
	// reused, and DecodeCommand rejects it.
)

// Command is one controller state mutation carried through the replicated
// log. Every replica applies the identical command to its own controller +
// network copy, so detection math inputs (At, LastSeen, Detection) ride in
// the command rather than being re-derived from replica-local clocks — the
// apply is deterministic by construction.
//
// ctlplane deliberately knows nothing about the controller: fields are plain
// integers (switch IDs, ports, nanosecond timestamps) and the ctlnet layer
// owns their semantics.
type Command struct {
	Kind CmdKind `json:"kind"`

	// CmdRecoverNode: the dead switch and its last heartbeat (ns on the
	// leader's epoch) for the detection-latency breakdown.
	Switch     int32 `json:"switch,omitempty"`
	LastSeenNS int64 `json:"last_seen_ns,omitempty"`

	// CmdRecoverLink: the two reported endpoints.
	ASwitch int32 `json:"a_switch,omitempty"`
	APort   int32 `json:"a_port,omitempty"`
	BSwitch int32 `json:"b_switch,omitempty"`
	BPort   int32 `json:"b_port,omitempty"`

	// AtNS is when the leader acted; DetectionNS the measured detection
	// latency (link reports carry the agent's own measurement).
	AtNS        int64 `json:"at_ns"`
	DetectionNS int64 `json:"detection_ns,omitempty"`

	// Originating trace context: the reporting agent's span, so every
	// replica's recovery span joins the agent's trace.
	Trace uint64 `json:"trace,omitempty"`
	Span  uint64 `json:"span,omitempty"`
	Proc  string `json:"proc,omitempty"`
}

// Encode serializes the command for the log.
func (c Command) Encode() []byte {
	b, err := json.Marshal(c)
	if err != nil {
		// Command has no unmarshalable fields; this cannot happen.
		panic(fmt.Sprintf("ctlplane: encode command: %v", err))
	}
	return b
}

// DecodeCommand parses a log entry's payload.
func DecodeCommand(data []byte) (Command, error) {
	var c Command
	if err := json.Unmarshal(data, &c); err != nil {
		return Command{}, fmt.Errorf("ctlplane: decode command: %w", err)
	}
	if c.Kind != CmdRecoverNode && c.Kind != CmdRecoverLink {
		return Command{}, fmt.Errorf("ctlplane: unknown command kind %d", c.Kind)
	}
	return c, nil
}

// ReplayLog is the replay-based snapshot format: the ordered list of every
// command applied so far. Restoring replays the tail past the restorer's
// own applied prefix — valid because the log-prefix property guarantees the
// prefixes agree and the controller state machine is deterministic.
type ReplayLog struct {
	Commands [][]byte `json:"commands"`
}

// EncodeReplayLog serializes a replay snapshot.
func EncodeReplayLog(cmds [][]byte) []byte {
	b, err := json.Marshal(ReplayLog{Commands: cmds})
	if err != nil {
		panic(fmt.Sprintf("ctlplane: encode replay log: %v", err))
	}
	return b
}

// DecodeReplayLog parses a replay snapshot.
func DecodeReplayLog(data []byte) (ReplayLog, error) {
	var r ReplayLog
	if err := json.Unmarshal(data, &r); err != nil {
		return ReplayLog{}, fmt.Errorf("ctlplane: decode replay log: %w", err)
	}
	return r, nil
}
