package sharebackup

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"sharebackup/internal/bench"
	"sharebackup/internal/obs"
	"sharebackup/internal/obs/tsdb"
)

// This file is the observability-overhead benchmark behind `sbbench -obs`:
// it prices the obs layer's own tax — the bus' event hot path (no-sink,
// ring-sink, JSONL-sink), the tsdb sampler, and the registry export/render
// paths — so the budget that keeps observability affordable at fleet scale
// is CI-enforced. Allocation on the event hot path is a hard benchmark
// failure, not a gated metric: the trajectory gate skips zero-valued
// baselines, so drift away from zero must fail loudly here instead.

// ObsBenchConfig parameterizes ObsBench.
type ObsBenchConfig struct {
	// Smoke shrinks the measurement loops to CI scale. Metrics stay
	// per-event, so smoke runs still gate against full-size baselines.
	Smoke bool
}

// ObsBenchResult is the machine-readable observability benchmark output.
// Timing numbers are host-dependent; the allocs-per-event numbers are
// structural (no-sink must be zero, ring-sink allocation-free steady state).
type ObsBenchResult struct {
	Experiment string `json:"experiment"`
	Smoke      bool   `json:"smoke,omitempty"`

	Events             int64   `json:"events"`
	EmitNoSinkNSOp     float64 `json:"emit_nosink_ns_op"`
	EmitNoSinkAllocsOp float64 `json:"emit_nosink_allocs_op"`
	EmitRingNSEvent    float64 `json:"emit_ring_ns_event"`
	EmitRingAllocsOp   float64 `json:"emit_ring_allocs_event"`
	MeteredNSEvent     float64 `json:"metered_ns_event"` // self-meter's own view of dispatch cost

	JSONLEvents      int64   `json:"jsonl_events"`
	EmitJSONLNSEvent float64 `json:"emit_jsonl_ns_event"`
	JSONLBytesEvent  float64 `json:"jsonl_bytes_event"`

	TSDBSamples     int64   `json:"tsdb_samples"`
	TSDBSeries      int     `json:"tsdb_series"`
	TSDBSampleNSOp  float64 `json:"tsdb_sample_ns_op"`
	TSDBSelfCPUNSOp float64 `json:"tsdb_self_cpu_ns_op"` // sampler's own CPU meter, per sample

	ExportNSOp   float64 `json:"export_ns_op"`
	PromTextNSOp float64 `json:"promtext_ns_op"`
}

// ObsBench measures the observability layer's self-overhead. It returns an
// error — a benchmark failure, exit 2 in sbbench — if the no-sink emit path
// allocates at all or the ring-sink dispatch path regrows per-event
// allocation.
func ObsBench(cfg ObsBenchConfig) (*ObsBenchResult, error) {
	events := int64(2_000_000)
	jsonlEvents := int64(100_000)
	samples := int64(2_000)
	renders := int64(2_000)
	if cfg.Smoke {
		events = 200_000
		jsonlEvents = 10_000
		samples = 200
		renders = 200
	}
	res := &ObsBenchResult{Experiment: "obs-overhead", Smoke: cfg.Smoke, Events: events, JSONLEvents: jsonlEvents}
	reg := obs.NewRegistry()

	// --- No-sink fast path: the cost every emit site pays in production
	// when tracing is off. Must be allocation-free.
	bus := &obs.Bus{}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := int64(0); i < events; i++ {
		if bus.Enabled() {
			ev := obs.NewEvent(obs.KindProbeMissed, time.Duration(i))
			bus.Emit(ev)
		}
	}
	res.EmitNoSinkNSOp = float64(time.Since(start).Nanoseconds()) / float64(events)
	runtime.ReadMemStats(&ms1)
	res.EmitNoSinkAllocsOp = allocsPerEvent(&ms0, &ms1, events)
	if res.EmitNoSinkAllocsOp > 0 {
		return nil, fmt.Errorf("obs bench: no-sink emit path allocates %.0f times per event, want 0", res.EmitNoSinkAllocsOp)
	}

	// --- Ring-sink dispatch with the self-meter running: the cost of a
	// live in-memory trace (flight recorder, debughttp backlog). The
	// steady state must stay allocation-free event storms deep.
	bus.MeterOverhead(reg)
	ring := obs.NewRing(4096)
	bus.Attach(ring)
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start = time.Now()
	for i := int64(0); i < events; i++ {
		if bus.Enabled() {
			ev := obs.NewEvent(obs.KindRecoveryComplete, time.Duration(i))
			ev.Switch = int32(i & 0xff)
			ev.Total = time.Duration(i)
			bus.Emit(ev)
		}
	}
	res.EmitRingNSEvent = float64(time.Since(start).Nanoseconds()) / float64(events)
	runtime.ReadMemStats(&ms1)
	res.EmitRingAllocsOp = allocsPerEvent(&ms0, &ms1, events)
	bus.Detach(ring)
	if res.EmitRingAllocsOp > 0 {
		return nil, fmt.Errorf("obs bench: ring-sink emit path allocates %.0f times per event, want 0", res.EmitRingAllocsOp)
	}
	meterEvents := reg.Counter("obs.emit_events").Value()
	if meterEvents != events {
		return nil, fmt.Errorf("obs bench: self-meter counted %d events, emitted %d", meterEvents, events)
	}
	res.MeteredNSEvent = float64(reg.Counter("obs.emit_ns").Value()) / float64(events)

	// --- JSONL-sink serialization: the cost (ns and bytes per event) of
	// writing the trace stream sbtap consumes.
	jbus := &obs.Bus{}
	jbus.SetProc("bench")
	sink := obs.NewJSONLSink(io.Discard)
	sink.CountBytesIn(reg.Counter("obs.sink_jsonl_bytes"))
	jbus.Attach(sink)
	start = time.Now()
	for i := int64(0); i < jsonlEvents; i++ {
		ev := obs.NewEvent(obs.KindRecoveryComplete, time.Duration(i))
		ev.Switch = int32(i & 0xff)
		ev.Backup = int32(i & 0x7f)
		ev.Detail = "node"
		ev.Total = time.Duration(i)
		jbus.Emit(ev)
	}
	res.EmitJSONLNSEvent = float64(time.Since(start).Nanoseconds()) / float64(jsonlEvents)
	jbus.Detach(sink)
	if err := sink.Err(); err != nil {
		return nil, fmt.Errorf("obs bench: jsonl sink: %w", err)
	}
	res.JSONLBytesEvent = float64(sink.Bytes()) / float64(jsonlEvents)
	if res.JSONLBytesEvent <= 0 {
		return nil, fmt.Errorf("obs bench: jsonl sink byte meter recorded nothing")
	}

	// --- tsdb sampler: the per-interval cost of keeping windowed history
	// for a realistically sized registry (the emulator exports a few dozen
	// metrics).
	popReg := obs.NewRegistry()
	for i := 0; i < 48; i++ {
		popReg.Counter(fmt.Sprintf("bench.counter_%02d", i)).Add(int64(i))
	}
	for i := 0; i < 16; i++ {
		popReg.Gauge(fmt.Sprintf("bench.gauge_%02d", i)).Set(int64(i))
	}
	for i := 0; i < 8; i++ {
		h := popReg.Histogram(fmt.Sprintf("bench.hist_%d", i))
		for v := int64(1); v <= 1000; v++ {
			h.Record(v)
		}
	}
	store := tsdb.New(tsdb.Config{Registry: popReg, Window: 600})
	epoch := time.Unix(1_700_000_000, 0)
	start = time.Now()
	for i := int64(0); i < samples; i++ {
		store.Sample(epoch.Add(time.Duration(i) * time.Second))
	}
	res.TSDBSampleNSOp = float64(time.Since(start).Nanoseconds()) / float64(samples)
	res.TSDBSamples = samples
	res.TSDBSeries = len(store.Names())
	res.TSDBSelfCPUNSOp = float64(popReg.Counter("tsdb.sample_cpu_ns").Value()) / float64(samples)
	if res.TSDBSeries == 0 {
		return nil, fmt.Errorf("obs bench: tsdb sampled no series")
	}

	// --- Registry export and Prometheus render of the same registry: the
	// scrape cost debughttp's /varz and /metricsz pay.
	start = time.Now()
	for i := int64(0); i < renders; i++ {
		ex := popReg.Export(false)
		if len(ex.Counters) == 0 {
			return nil, fmt.Errorf("obs bench: empty export")
		}
	}
	res.ExportNSOp = float64(time.Since(start).Nanoseconds()) / float64(renders)
	start = time.Now()
	for i := int64(0); i < renders; i++ {
		if len(popReg.PromText()) == 0 {
			return nil, fmt.Errorf("obs bench: empty prom text")
		}
	}
	res.PromTextNSOp = float64(time.Since(start).Nanoseconds()) / float64(renders)

	return res, nil
}

// allocsPerEvent is the whole number of heap allocations per event between
// two MemStats readings, the way testing.AllocsPerRun reports it (integer
// division). Mallocs is process-wide, so a handful of allocations by the
// runtime or another goroutine during a run of 200k+ events must not read as
// a fractional per-event cost of the emit path.
func allocsPerEvent(before, after *runtime.MemStats, events int64) float64 {
	return float64((after.Mallocs - before.Mallocs) / uint64(events))
}

// GateMetrics flattens the result into the trajectory gate's metric map.
// Host wall-clock metrics get wide tolerances; the structural zero-alloc
// contracts are enforced as hard errors in ObsBench itself (the gate skips
// zero-valued baselines). jsonl_bytes_event is deterministic serialization
// volume, so its tolerance is tight.
func (r *ObsBenchResult) GateMetrics() map[string]bench.Metric {
	return map[string]bench.Metric{
		"obs.emit_nosink_ns_op": {
			Value: r.EmitNoSinkNSOp, Unit: "ns", Better: "lower", Tolerance: 1.0,
		},
		"obs.emit_nosink_allocs_op": {
			Value: r.EmitNoSinkAllocsOp, Unit: "allocs", Better: "lower", Tolerance: 0.25,
		},
		"obs.emit_ring_ns_event": {
			Value: r.EmitRingNSEvent, Unit: "ns", Better: "lower", Tolerance: 1.0,
		},
		"obs.emit_ring_allocs_event": {
			Value: r.EmitRingAllocsOp, Unit: "allocs", Better: "lower", Tolerance: 0.25,
		},
		"obs.emit_jsonl_ns_event": {
			Value: r.EmitJSONLNSEvent, Unit: "ns", Better: "lower", Tolerance: 1.0,
		},
		"obs.jsonl_bytes_event": {
			Value: r.JSONLBytesEvent, Unit: "bytes", Better: "lower", Tolerance: 0.3,
		},
		"obs.tsdb_sample_ns_op": {
			Value: r.TSDBSampleNSOp, Unit: "ns", Better: "lower", Tolerance: 1.0,
		},
		"obs.export_ns_op": {
			Value: r.ExportNSOp, Unit: "ns", Better: "lower", Tolerance: 1.0,
		},
		"obs.promtext_ns_op": {
			Value: r.PromTextNSOp, Unit: "ns", Better: "lower", Tolerance: 1.0,
		},
	}
}
