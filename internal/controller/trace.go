package controller

import (
	"errors"
	"fmt"
	"time"

	"sharebackup/internal/obs"
)

// Attempt is one recovery the controller was asked for and what came of it,
// as Emit renders it: the failure (Kind "node" at A, or "link" from A to B)
// declared at At, and the controller's Rec (nil: nothing replaced) and Err.
// Detection is a refusal's detection latency; a recovery's is Rec's.
type Attempt struct {
	Kind      string
	A, B      EndPoint
	At        time.Duration
	Detection time.Duration
	Rec       *Recovery
	Err       error
	// The recovery completes at Done, its report phase being Report. Wall
	// marks the times as the process epoch's rather than a virtual clock's.
	// Circuits, when positive, adds a circuit-reconfigured event per
	// replaced switch, each re-pointing that many circuit switches: the
	// model's, which runs no circuit-switch process to report its own.
	Done, Report time.Duration
	Wall         bool
	Circuits     int
}

// Emit renders one recovery attempt on bus as its event sequence, under a
// span it starts from parent (a zero parent roots a fresh trace), and
// returns that span:
//
//   - the report that tripped the Section 5.1 halt: circuit-switch-halted;
//   - a refusal, nothing replaced: failure-declared alone;
//   - a recovery: failure-declared, backup-assigned per replaced switch, the
//     model's circuit-reconfigured events, then recovery-complete with the
//     phase breakdown.
//
// An attempt with nothing to show — refused because recovery was already
// halted, or a resent report whose recovery is done — renders nothing and
// returns the zero span. The controller emits nothing itself: replicas apply
// the same commands, and a recovery is traced once, by whoever drives it.
func Emit(bus *obs.Bus, parent obs.TraceContext, a Attempt) obs.SpanRef {
	var trip haltTrip
	tripped := errors.As(a.Err, &trip)
	if a.Rec == nil && (a.Err == nil || !tripped && errors.Is(a.Err, ErrHalted)) {
		return obs.SpanRef{}
	}
	span := bus.StartSpan(parent)
	if !bus.Enabled() {
		return span
	}
	emit := func(ev obs.Event) {
		ev.Wall = a.Wall
		span.Tag(&ev)
		bus.Emit(ev)
	}
	if tripped {
		ev := obs.NewEvent(obs.KindCircuitSwitchHalted, a.At)
		ev.Switch, ev.Peer = int32(a.A.Switch), int32(a.B.Switch)
		ev.Detail = fmt.Sprintf("%s exceeded %d reports in %v", trip.cs, csReportThreshold, csReportWindow)
		emit(ev)
		return span
	}
	rec := a.Rec
	ev := obs.NewEvent(obs.KindFailureDeclared, a.At)
	ev.Switch, ev.Detection, ev.Detail = int32(a.A.Switch), a.Detection, a.Kind
	if a.Kind == "link" {
		ev.Port, ev.Peer, ev.PeerPort = int32(a.A.Port), int32(a.B.Switch), int32(a.B.Port)
	}
	if rec != nil {
		ev.Detection = rec.Detection
	}
	emit(ev)
	if rec == nil {
		return span
	}
	for i, failed := range rec.Failed {
		ev := obs.NewEvent(obs.KindBackupAssigned, a.At)
		ev.Switch, ev.Backup = int32(failed), int32(rec.Backup[i])
		emit(ev)
	}
	for i := 0; a.Circuits > 0 && i < len(rec.Failed); i++ {
		// No reconfiguration clock in the model: T is unknown (-1).
		ev := obs.NewEvent(obs.KindCircuitReconfigured, -1)
		ev.Switch, ev.Backup = int32(rec.Failed[i]), int32(rec.Backup[i])
		ev.Count, ev.Reconfig = int32(a.Circuits), rec.Reconfig
		emit(ev)
	}
	ev = obs.NewEvent(obs.KindRecoveryComplete, a.Done)
	ev.Detail = rec.Kind
	ev.Switch, ev.Backup, ev.Count = int32(rec.Failed[0]), int32(rec.Backup[0]), int32(len(rec.Failed))
	ev.Detection, ev.Report, ev.Reconfig = rec.Detection, a.Report, rec.Reconfig
	ev.Total = rec.Detection + a.Report + rec.Reconfig
	emit(ev)
	return span
}
