package obs

import (
	"sync"
	"time"
)

// SLOConfig tunes an SLOWatchdog.
type SLOConfig struct {
	// Budget is the recovery-latency SLO: a recovery whose Total exceeds it
	// is a breach. 0 disables breach detection (the watchdog still
	// histograms totals).
	Budget time.Duration
	// Window is the sliding window (in recoveries) the burn rate is
	// computed over. Default 64.
	Window int
	// Registry receives the watchdog's counters and gauges
	// (slo.recoveries, slo.breaches, slo.burn_rate_ppm, slo.budget_ns,
	// histogram slo.recovery_total_ns). Nil means DefaultRegistry.
	Registry *Registry
	// OnBreach, if set, is called (outside the watchdog's lock, on the
	// emitting goroutine) with each breaching recovery-complete event —
	// the flight-recorder trigger hook.
	OnBreach func(Event)
}

// SLOWatchdog is a sink that audits every completed recovery against a
// latency budget: SPIDER's argument made operational — a recovery-delay
// guarantee is only a guarantee if it is continuously measured and alerted
// on, not benchmarked once. It keeps cumulative breach counters, a sliding
// burn-rate gauge (breached fraction of the last Window recoveries, in
// ppm), and a histogram of recovery totals, all surfaced through the
// registry (/varz, /metricsz).
//
// Recoveries driven through the TCP control plane are emitted twice on one
// bus — the controller's virtual-time span and the server's wall-clock
// mirror of the same recovery, sharing trace and span IDs — so the watchdog
// deduplicates by (trace, span) and audits each recovery once.
type SLOWatchdog struct {
	cfg SLOConfig

	mRecoveries *Counter
	mBreaches   *Counter
	gBurnPPM    *Gauge
	gBudget     *Gauge
	hTotal      *Histogram

	mu        sync.Mutex
	window    []bool // ring of breach outcomes
	next      int
	filled    bool
	lastTrace uint64
	lastSpan  uint64
}

// NewSLOWatchdog builds a watchdog; attach it to a bus to start auditing.
func NewSLOWatchdog(cfg SLOConfig) *SLOWatchdog {
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	if cfg.Registry == nil {
		cfg.Registry = DefaultRegistry
	}
	w := &SLOWatchdog{
		cfg:         cfg,
		mRecoveries: cfg.Registry.Counter("slo.recoveries"),
		mBreaches:   cfg.Registry.Counter("slo.breaches"),
		gBurnPPM:    cfg.Registry.Gauge("slo.burn_rate_ppm"),
		gBudget:     cfg.Registry.Gauge("slo.budget_ns"),
		hTotal:      cfg.Registry.Histogram("slo.recovery_total_ns"),
		window:      make([]bool, cfg.Window),
	}
	w.gBudget.Set(int64(cfg.Budget))
	return w
}

// Event implements Sink.
func (w *SLOWatchdog) Event(ev Event) {
	if ev.Kind != KindRecoveryComplete {
		return
	}
	breach := w.cfg.Budget > 0 && ev.Total > w.cfg.Budget
	w.mu.Lock()
	if ev.Trace != 0 && ev.Trace == w.lastTrace && ev.Span == w.lastSpan {
		w.mu.Unlock()
		return // wall-clock mirror of the recovery just audited
	}
	w.lastTrace, w.lastSpan = ev.Trace, ev.Span
	w.window[w.next] = breach
	w.next++
	if w.next == len(w.window) {
		w.next = 0
		w.filled = true
	}
	n := len(w.window)
	if !w.filled {
		n = w.next
	}
	breached := 0
	for i := 0; i < n; i++ {
		if w.window[i] {
			breached++
		}
	}
	w.mu.Unlock()

	w.mRecoveries.Inc()
	w.hTotal.Record(ev.Total.Nanoseconds())
	if n > 0 {
		w.gBurnPPM.Set(int64(float64(breached) / float64(n) * 1e6))
	}
	if breach {
		w.mBreaches.Inc()
		if w.cfg.OnBreach != nil {
			w.cfg.OnBreach(ev)
		}
	}
}
