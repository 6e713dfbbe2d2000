package ctlnet

import (
	"fmt"
	"sync"
	"time"

	"sharebackup/internal/controller"
	"sharebackup/internal/ctlplane"
	"sharebackup/internal/sbnet"
)

// replicaState is one replica's deterministic core: the network model, the
// controller over it and the history of applied commands, behind its own
// mutex. It holds no socket and reads no clock — every time it applies comes
// from the command — so replicas fed the same log hold the same state, and a
// seeded consensus core can drive it alone. It emits nothing: the side
// effects (the leader's trace, circuit-switch mirror and detector re-arm, and
// every replica's publish) are the Server's.
type replicaState struct {
	mu  sync.Mutex
	ctl *controller.Controller
	// cmds is the ordered applied-command history: the replay snapshot, and
	// Restore's cursor (it applies only the tail past this prefix).
	cmds [][]byte
}

// refused marks the error of a command that was applied: its outcome is
// part of the replicated history, the same on every replica.
type refused struct{ error }

func (r refused) Unwrap() error { return r.error }

// Apply applies one committed command and returns it with its recovery. A
// command the controller refuses (no backup left, halted) is applied all the
// same — replicas replaying the log must refuse it identically — and its
// error is a refused; only an undecodable entry leaves no trace. A link
// report whose two ends are both off active duty already has its recovery
// (a resend of a report that committed): it applies as a success with no
// recovery.
func (r *replicaState) Apply(data []byte) (ctlplane.Command, *controller.Recovery, error) {
	cmd, err := ctlplane.DecodeCommand(data)
	if err != nil {
		return cmd, nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, err := r.apply(cmd, data)
	return cmd, rec, err
}

// apply records and runs one decoded command; data is its encoding. Caller
// holds r.mu.
func (r *replicaState) apply(cmd ctlplane.Command, data []byte) (rec *controller.Recovery, err error) {
	r.cmds = append(r.cmds, append([]byte(nil), data...))
	switch cmd.Kind {
	case ctlplane.CmdRecoverNode:
		if err = r.inFabric(cmd.Switch); err != nil {
			break
		}
		if cmd.LastSeenNS > 0 {
			r.ctl.Heartbeat(sbnet.SwitchID(cmd.Switch), time.Duration(cmd.LastSeenNS))
		}
		rec, err = r.ctl.RecoverNode(sbnet.SwitchID(cmd.Switch), time.Duration(cmd.AtNS))
	case ctlplane.CmdRecoverLink:
		if err = r.inFabric(cmd.ASwitch, cmd.BSwitch); err != nil {
			break
		}
		a := controller.EndPoint{Switch: sbnet.SwitchID(cmd.ASwitch), Port: int(cmd.APort)}
		b := controller.EndPoint{Switch: sbnet.SwitchID(cmd.BSwitch), Port: int(cmd.BPort)}
		if nw := r.ctl.Network(); nw.Switch(a.Switch).Role != sbnet.RoleActive && nw.Switch(b.Switch).Role != sbnet.RoleActive {
			break // done already: a resend of a report that committed
		}
		// Every replica records the detection the reporting agent measured
		// (none: the probing interval).
		rec, err = r.ctl.ReportLinkFailureDetected(a, b, time.Duration(cmd.AtNS), time.Duration(cmd.DetectionNS))
	}
	if err != nil {
		err = refused{err}
	}
	return rec, err
}

// inFabric rejects switch IDs outside the network model: a log entry or a
// snapshot is bytes from a peer, and the controller indexes its model by
// them.
func (r *replicaState) inFabric(ids ...int32) error {
	n := r.ctl.Network().NumSwitches()
	for _, id := range ids {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("ctlnet: command names switch %d, outside the fabric's %d", id, n)
		}
	}
	return nil
}

// Snapshot serializes the applied command history — the replay-based
// snapshot a lagging replica (or a quorum-loss rebootstrap) restores from.
func (r *replicaState) Snapshot() []byte {
	r.mu.Lock()
	// Applies only append past this prefix, so it is read unlocked.
	cmds := r.cmds
	r.mu.Unlock()
	return ctlplane.EncodeReplayLog(cmds)
}

// Restore replays a snapshot's command tail past this replica's own applied
// prefix (the log-prefix property guarantees the prefixes agree); a snapshot
// no longer than that prefix changes nothing. A command's own error is part
// of the history being replayed; only decode failures abort.
func (r *replicaState) Restore(data []byte) error {
	rl, err := ctlplane.DecodeReplayLog(data)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.cmds); i < len(rl.Commands); i++ {
		cmd, err := ctlplane.DecodeCommand(rl.Commands[i])
		if err != nil {
			return err
		}
		_, _ = r.apply(cmd, rl.Commands[i])
	}
	return nil
}

// active reports whether switch id is on active duty: the detector's check
// before it declares a silent switch dead.
func (r *replicaState) active(id sbnet.SwitchID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ctl.Network().Switch(id).Role == sbnet.RoleActive
}
