package fluid

import (
	"sync/atomic"

	"sharebackup/internal/obs"
)

// Telemetry publishes the simulator's data-plane behaviour into an
// obs.Registry: flow lifecycle and engine counters, and flow-completion-time
// and recompute-work histograms. All handles are resolved once
// at construction, so the simulator's hot paths touch only lock-free
// counters/histograms — and a Simulator without telemetry attached pays a
// single nil check per event (the data-plane analogue of the event bus'
// "one atomic load when no sink" contract).
//
// Completion times are recorded in microseconds of simulated time.
type Telemetry struct {
	FlowsStarted      *obs.Counter // flows admitted into the active set
	FlowsCompleted    *obs.Counter // flows drained to zero bytes
	Stalls            *obs.Counter // SetPath to an empty path (disconnection)
	Reroutes          *obs.Counter // SetPath to a non-empty path, the same one included
	RateRecomputes    *obs.Counter // progressive-filling passes
	RateRecomputeWork *obs.Counter // flow×link incidences touched by filling passes
	RipplePasses      *obs.Counter // scoped passes the ripple pass settled
	RippleExpansions  *obs.Counter // verification-driven ripple set growths
	RippleFallbacks   *obs.Counter // scoped passes handed to component BFS
	ParallelPasses    *obs.Counter // passes that ran off the loop
	Components        *obs.Counter // link-sharing components filled
	FillRounds        *obs.Counter // progressive-filling rounds
	LinkScans         *obs.Counter // link slots visited by the bottleneck search
	ScanRebuilds      *obs.Counter // full scans that rebuilt the candidate list

	ActiveFlows *obs.Gauge // started, unfinished flows

	FCT           *obs.Histogram // flow completion time, µs of simulated time
	RecomputeWork *obs.Histogram // flow×link incidences per rate recompute
}

// NewTelemetry resolves all metric handles under the "fluid." prefix in reg
// (obs.DefaultRegistry when nil).
func NewTelemetry(reg *obs.Registry) *Telemetry {
	if reg == nil {
		reg = obs.DefaultRegistry
	}
	return &Telemetry{
		FlowsStarted:      reg.Counter("fluid.flows_started"),
		FlowsCompleted:    reg.Counter("fluid.flows_completed"),
		Stalls:            reg.Counter("fluid.stalls"),
		Reroutes:          reg.Counter("fluid.reroutes"),
		RateRecomputes:    reg.Counter("fluid.rate_recomputes"),
		RateRecomputeWork: reg.Counter("fluid.rate_recompute_work"),
		RipplePasses:      reg.Counter("fluid.ripple_passes"),
		RippleExpansions:  reg.Counter("fluid.ripple_expansions"),
		RippleFallbacks:   reg.Counter("fluid.ripple_fallbacks"),
		ParallelPasses:    reg.Counter("fluid.parallel_passes"),
		Components:        reg.Counter("fluid.components"),
		FillRounds:        reg.Counter("fluid.fill_rounds"),
		LinkScans:         reg.Counter("fluid.link_scans"),
		ScanRebuilds:      reg.Counter("fluid.scan_rebuilds"),
		ActiveFlows:       reg.Gauge("fluid.active_flows"),
		FCT:               reg.Histogram("fluid.fct_us"),
		RecomputeWork:     reg.Histogram("fluid.recompute_work_per_recompute"),
	}
}

// addEngine publishes the engine counters one rate recompute moved, so the
// registry mirrors EngineStats without a second set of increment sites.
func (t *Telemetry) addEngine(d *EngineStats) {
	t.RateRecomputes.Add(d.Recomputes)
	t.RateRecomputeWork.Add(d.RecomputeWork)
	t.RecomputeWork.Record(d.RecomputeWork)
	t.RipplePasses.Add(d.RipplePasses)
	t.RippleExpansions.Add(d.RippleExpansions)
	t.RippleFallbacks.Add(d.RippleFallbacks)
	t.ParallelPasses.Add(d.ParallelPasses)
	t.Components.Add(d.Components)
	t.FillRounds.Add(d.FillRounds)
	t.LinkScans.Add(d.LinkScans)
	t.ScanRebuilds.Add(d.ScanRebuilds)
}

// defaultTel is the process-wide telemetry picked up by every New Simulator,
// set by the commands' -debug-addr wiring. Nil (the default) keeps the
// simulator instrumentation-free.
var defaultTel atomic.Pointer[Telemetry]

// SetDefaultTelemetry installs t as the telemetry every subsequently
// constructed Simulator samples into (nil disables). Existing simulators are
// unaffected.
func SetDefaultTelemetry(t *Telemetry) { defaultTel.Store(t) }
