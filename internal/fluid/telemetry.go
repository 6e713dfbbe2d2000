package fluid

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sharebackup/internal/obs"
)

// Telemetry publishes the simulator's data-plane behaviour into an
// obs.Registry: flow lifecycle counters, flow-rate and flow-completion-time
// histograms, and link-utilization sampling. All handles are resolved once
// at construction, so the simulator's hot paths touch only lock-free
// counters/histograms — and a Simulator without telemetry attached pays a
// single nil check per event (the data-plane analogue of the event bus'
// "one atomic load when no sink" contract).
//
// Units: completion times are recorded in microseconds of simulated time,
// rates in milli-bytes/second (experiment capacities are O(1..100) bytes/s,
// so whole-byte buckets would round most rates to zero), utilization in
// permille (0..1000) of capacity.
type Telemetry struct {
	reg *obs.Registry

	FlowsStarted      *obs.Counter // flows admitted into the active set
	FlowsCompleted    *obs.Counter // flows drained to zero bytes
	Stalls            *obs.Counter // SetPath to an empty path (disconnection)
	Reroutes          *obs.Counter // SetPath to a different non-empty path
	RateRecomputes    *obs.Counter // progressive-filling passes (scoped or full)
	FullRecomputes    *obs.Counter // passes that fell back to the whole active set
	RateRecomputeWork *obs.Counter // flow×link incidences touched by filling passes
	RipplePasses      *obs.Counter // scoped passes the ripple pass settled
	RippleExpansions  *obs.Counter // verification-driven ripple set growths
	RippleFallbacks   *obs.Counter // scoped passes handed to component BFS
	ParallelPasses    *obs.Counter // component fills run on the worker pool
	Components        *obs.Counter // link-sharing components filled
	FillRounds        *obs.Counter // progressive-filling rounds
	LinkScans         *obs.Counter // link slots visited by the bottleneck search
	ScanRebuilds      *obs.Counter // full scans that rebuilt the candidate list

	ActiveFlows  *obs.Gauge // started, unfinished flows
	PendingFlows *obs.Gauge // scheduled, not yet arrived

	FCT           *obs.Histogram // flow completion time, µs of simulated time
	FlowRate      *obs.Histogram // max-min rate at completion, milli-bytes/s
	LinkUtil      *obs.Histogram // per-link utilization samples, permille
	RecomputeWork *obs.Histogram // flow×link incidences per filling pass

	MaxLinkUtil *obs.Gauge // worst link's utilization at last sample, permille

	// perLink caches per-link utilization gauges, created lazily on the
	// first SampleUtilization for each link ("fluid.link_util_permille.N").
	// Guarded by perLinkMu: one Telemetry may be shared by simulators on
	// different goroutines (counters and histograms are already atomic).
	perLinkMu sync.Mutex
	perLink   []*obs.Gauge
}

// NewTelemetry resolves all metric handles under the "fluid." prefix in reg
// (obs.DefaultRegistry when nil).
func NewTelemetry(reg *obs.Registry) *Telemetry {
	if reg == nil {
		reg = obs.DefaultRegistry
	}
	return &Telemetry{
		reg:               reg,
		FlowsStarted:      reg.Counter("fluid.flows_started"),
		FlowsCompleted:    reg.Counter("fluid.flows_completed"),
		Stalls:            reg.Counter("fluid.stalls"),
		Reroutes:          reg.Counter("fluid.reroutes"),
		RateRecomputes:    reg.Counter("fluid.rate_recomputes"),
		FullRecomputes:    reg.Counter("fluid.rate_recomputes_full"),
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
		PendingFlows:      reg.Gauge("fluid.pending_flows"),
		FCT:               reg.Histogram("fluid.fct_us"),
		FlowRate:          reg.Histogram("fluid.flow_rate_mBps"),
		LinkUtil:          reg.Histogram("fluid.link_util_permille"),
		RecomputeWork:     reg.Histogram("fluid.recompute_work_per_pass"),
		MaxLinkUtil:       reg.Gauge("fluid.max_link_util_permille"),
	}
}

// addEngine publishes the engine counters one recompute pass moved (the
// pass's own counters — recomputes, work — are added where they happen).
func (t *Telemetry) addEngine(before, after EngineStats) {
	t.RipplePasses.Add(after.RipplePasses - before.RipplePasses)
	t.RippleExpansions.Add(after.RippleExpansions - before.RippleExpansions)
	t.RippleFallbacks.Add(after.RippleFallbacks - before.RippleFallbacks)
	t.ParallelPasses.Add(after.ParallelPasses - before.ParallelPasses)
	t.Components.Add(after.Components - before.Components)
	t.FillRounds.Add(after.FillRounds - before.FillRounds)
	t.LinkScans.Add(after.LinkScans - before.LinkScans)
	t.ScanRebuilds.Add(after.ScanRebuilds - before.ScanRebuilds)
}

// defaultTel is the process-wide telemetry picked up by every New Simulator,
// set by the commands' -debug-addr wiring. Nil (the default) keeps the
// simulator instrumentation-free.
var defaultTel atomic.Pointer[Telemetry]

// SetDefaultTelemetry installs t as the telemetry every subsequently
// constructed Simulator samples into (nil disables). Existing simulators are
// unaffected.
func SetDefaultTelemetry(t *Telemetry) { defaultTel.Store(t) }

// DefaultTelemetry returns the telemetry installed by SetDefaultTelemetry,
// or nil.
func DefaultTelemetry() *Telemetry { return defaultTel.Load() }

// SetTelemetry attaches (or, with nil, detaches) telemetry on this simulator
// only, overriding the process default it was constructed with. Safe to call
// from any goroutine; the rest of Simulator stays single-goroutine-owned.
func (s *Simulator) SetTelemetry(t *Telemetry) { s.tel.Store(t) }

// Telemetry returns the simulator's attached telemetry (possibly nil).
func (s *Simulator) Telemetry() *Telemetry { return s.tel.Load() }

// linkGauge returns the cached per-link utilization gauge, creating it on
// first use. Called only from SampleUtilization, never from the hot path.
func (t *Telemetry) linkGauge(link int, n int) *obs.Gauge {
	t.perLinkMu.Lock()
	defer t.perLinkMu.Unlock()
	if len(t.perLink) < n {
		grown := make([]*obs.Gauge, n)
		copy(grown, t.perLink)
		t.perLink = grown
	}
	g := t.perLink[link]
	if g == nil {
		g = t.reg.Gauge(fmt.Sprintf("fluid.link_util_permille.%d", link))
		t.perLink[link] = g
	}
	return g
}

// SampleUtilization takes one utilization sample across every link: each
// link's current aggregate rate over capacity is recorded into the LinkUtil
// histogram and its per-link gauge, and the worst link into MaxLinkUtil.
// It is a no-op without telemetry. Sampling is pull-based — call it at the
// cadence the experiment cares about (e.g. after each Run step); it is
// deliberately not hooked into the rate recomputation so the simulator's
// inner loop stays telemetry-free.
func (s *Simulator) SampleUtilization() {
	tel := s.tel.Load()
	if tel == nil {
		return
	}
	s.utilBuf = s.UtilizationInto(s.utilBuf)
	util := s.utilBuf
	maxPm := int64(0)
	for link, u := range util {
		pm := int64(u*1000 + 0.5)
		tel.LinkUtil.Record(pm)
		tel.linkGauge(link, len(util)).Set(pm)
		if pm > maxPm {
			maxPm = pm
		}
	}
	tel.MaxLinkUtil.Set(maxPm)
}
