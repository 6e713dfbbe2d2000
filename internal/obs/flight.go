package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// FlightConfig tunes a FlightRecorder.
type FlightConfig struct {
	// Dir is where dump bundles are written (created on demand). Empty
	// resolves through DefaultFlightDir: the SHAREBACKUP_FLIGHT_DIR
	// environment variable, else "flight-dumps" under the working
	// directory.
	Dir string
	// RingSize is the number of recent events kept for dumps. Default 4096.
	RingSize int
	// SLOBudget triggers a dump when a recovery-complete event's Total
	// exceeds it. 0 disables the trigger (an SLOWatchdog's OnBreach can
	// still call Trigger explicitly).
	SLOBudget time.Duration
	// KeepAliveGapThreshold triggers a dump when a probe-missed event
	// reports this many consecutive misses of one check — the keep-alive
	// gap that precedes a failure declaration. 0 disables.
	KeepAliveGapThreshold int
	// DropBurstThreshold triggers a dump when the recorder's own ring
	// evicts this many unread events between two trigger checks — the
	// signature of an event storm outrunning every sink. 0 disables.
	DropBurstThreshold int
	// Cooldown is the minimum wall-clock spacing between dumps, so a storm
	// of anomalies produces one bundle, not thousands. Default 1s.
	Cooldown time.Duration
	// Registry is snapshotted into every bundle (varz.json) and receives
	// the recorder's own counters (flight.dumps, flight.trigger_errors).
	// Nil means DefaultRegistry.
	Registry *Registry
	// Bus, when set via Attach, also receives a flight-dump event per
	// bundle so the dump itself lands in the trace.
	bus *Bus
}

// FlightRecorder is the always-on black box of a control-plane process: a
// cheap ring of recent events plus anomaly triggers that dump a bundled
// snapshot — recent events, metrics export, goroutine profile — to disk the
// moment something crosses a threshold, while the process keeps running.
//
// The trigger path runs inside the bus' serialized sink dispatch, so it
// only inspects the event and enqueues; bundle writing happens on a
// background goroutine that must never touch the triggering bus' lock.
type FlightRecorder struct {
	cfg  FlightConfig
	ring *Ring

	mDumps  *Counter
	mErrors *Counter

	lastDrops atomic.Uint64
	evCount   atomic.Uint64

	reqs chan dumpReq
	quit chan struct{}
	wg   sync.WaitGroup

	mu       sync.Mutex
	lastDump time.Time
	dumpSeq  int
	dumps    []string // bundle dirs written, oldest first
}

type dumpReq struct {
	reason  string
	trigger Event
}

// DefaultFlightDir resolves the flight-recorder dump directory: the
// SHAREBACKUP_FLIGHT_DIR environment variable when set (how CI collects
// bundles as workflow artifacts), else fallback, else "flight-dumps".
func DefaultFlightDir(fallback string) string {
	if dir := os.Getenv("SHAREBACKUP_FLIGHT_DIR"); dir != "" {
		return dir
	}
	if fallback != "" {
		return fallback
	}
	return "flight-dumps"
}

// NewFlightRecorder builds a recorder and starts its dump goroutine. Attach
// it to a bus; Close detaches nothing (the caller owns attachment) but
// stops the goroutine after draining pending dumps.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.Dir == "" {
		cfg.Dir = DefaultFlightDir("")
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 4096
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = DefaultRegistry
	}
	r := &FlightRecorder{
		cfg:     cfg,
		ring:    NewRing(cfg.RingSize),
		mDumps:  cfg.Registry.Counter("flight.dumps"),
		mErrors: cfg.Registry.Counter("flight.trigger_errors"),
		reqs:    make(chan dumpReq, 4),
		quit:    make(chan struct{}),
	}
	r.ring.CountDropsIn(cfg.Registry.Counter("obs.ring_dropped_events"))
	r.wg.Add(1)
	go r.dumpLoop()
	return r
}

// Attach hooks the recorder onto bus (as a sink) and remembers the bus so
// each bundle is announced with a flight-dump event.
func (r *FlightRecorder) Attach(bus *Bus) {
	r.cfg.bus = bus
	bus.Attach(r)
}

// Event implements Sink: record into the ring, then evaluate triggers.
func (r *FlightRecorder) Event(ev Event) {
	r.ring.Event(ev)
	switch {
	case r.cfg.SLOBudget > 0 && ev.Kind == KindRecoveryComplete && ev.Total > r.cfg.SLOBudget:
		r.Trigger("slo-breach", ev)
	case r.cfg.KeepAliveGapThreshold > 0 && ev.Kind == KindProbeMissed && int(ev.Count) >= r.cfg.KeepAliveGapThreshold:
		r.Trigger("keepalive-gap", ev)
	}
	// Sample ring-drop bursts every 256 events so the common path stays a
	// ring append plus two compares.
	if r.cfg.DropBurstThreshold > 0 && r.evCount.Add(1)%256 == 0 {
		drops := r.ring.Dropped()
		if last := r.lastDrops.Swap(drops); drops-last >= uint64(r.cfg.DropBurstThreshold) {
			r.Trigger("ring-drop-burst", ev)
		}
	}
}

// Trigger requests a dump bundle for the given reason. Non-blocking: if the
// dump queue is full or the cooldown has not elapsed, the request is
// dropped (counted in flight.trigger_errors).
func (r *FlightRecorder) Trigger(reason string, ev Event) {
	select {
	case r.reqs <- dumpReq{reason: reason, trigger: ev}:
	default:
		r.mErrors.Inc()
	}
}

func (r *FlightRecorder) dumpLoop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.quit:
			// Drain anything enqueued before Close.
			for {
				select {
				case req := <-r.reqs:
					r.dump(req)
				default:
					return
				}
			}
		case req := <-r.reqs:
			r.dump(req)
		}
	}
}

func (r *FlightRecorder) dump(req dumpReq) {
	r.mu.Lock()
	now := time.Now()
	if !r.lastDump.IsZero() && now.Sub(r.lastDump) < r.cfg.Cooldown {
		r.mu.Unlock()
		r.mErrors.Inc()
		return
	}
	r.lastDump = now
	r.dumpSeq++
	seq := r.dumpSeq
	r.mu.Unlock()

	dir := filepath.Join(r.cfg.Dir, fmt.Sprintf("flightdump-%03d-%s", seq, req.reason))
	if err := r.writeBundle(dir, req); err != nil {
		r.mErrors.Inc()
		return
	}
	r.mDumps.Inc()
	r.mu.Lock()
	r.dumps = append(r.dumps, dir)
	r.mu.Unlock()
	if bus := r.cfg.bus; bus.Enabled() {
		ev := NewEvent(KindFlightDump, req.trigger.T)
		ev.Wall = req.trigger.Wall
		ev.Detail = req.reason + " -> " + dir
		bus.Emit(ev)
	}
}

// flightMeta is the bundle's meta.json shape.
type flightMeta struct {
	Reason    string    `json:"reason"`
	Trigger   Event     `json:"trigger"`
	WrittenAt time.Time `json:"written_at"`
	Proc      string    `json:"proc,omitempty"`
	Events    int       `json:"events"`
	Dropped   uint64    `json:"ring_dropped"`
}

func (r *FlightRecorder) writeBundle(dir string, req dumpReq) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	evs := r.ring.Events()

	ef, err := os.Create(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(ef)
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			ef.Close()
			return err
		}
	}
	if err := ef.Close(); err != nil {
		return err
	}

	vz, err := json.MarshalIndent(r.cfg.Registry.Export(true), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "varz.json"), vz, 0o644); err != nil {
		return err
	}

	gf, err := os.Create(filepath.Join(dir, "goroutines.txt"))
	if err != nil {
		return err
	}
	if p := pprof.Lookup("goroutine"); p != nil {
		if err := p.WriteTo(gf, 1); err != nil {
			gf.Close()
			return err
		}
	}
	if err := gf.Close(); err != nil {
		return err
	}

	meta := flightMeta{
		Reason:    req.reason,
		Trigger:   req.trigger,
		WrittenAt: time.Now().UTC(),
		Proc:      r.cfg.bus.Proc(),
		Events:    len(evs),
		Dropped:   r.ring.Dropped(),
	}
	mb, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "meta.json"), mb, 0o644)
}

// Dumps returns the bundle directories written so far, oldest first.
func (r *FlightRecorder) Dumps() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.dumps...)
}

// Close stops the dump goroutine after draining pending requests. It does
// not detach the recorder from any bus — do that first.
func (r *FlightRecorder) Close() {
	close(r.quit)
	r.wg.Wait()
}
