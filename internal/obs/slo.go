package obs

import (
	"sync"
	"time"
)

// sloWindow is the number of most recent recoveries the burn rate is
// computed over.
const sloWindow = 64

// SLOConfig tunes an SLOWatchdog.
type SLOConfig struct {
	// Budget is the recovery-latency SLO: a recovery whose Total exceeds it
	// is a breach. 0 disables breach detection (the watchdog still
	// histograms totals).
	Budget time.Duration
	// Registry receives the watchdog's counters and gauges
	// (slo.recoveries, slo.breaches, slo.burn_rate_ppm, slo.budget_ns,
	// histogram slo.recovery_total_ns). Nil means DefaultRegistry.
	Registry *Registry
}

// SLOWatchdog is a sink that audits every completed recovery against a
// latency budget: SPIDER's argument made operational — a recovery-delay
// guarantee is only a guarantee if it is continuously measured and alerted
// on, not benchmarked once. It keeps cumulative breach counters, a sliding
// burn-rate gauge (breached fraction of the last sloWindow recoveries, in
// ppm), and a histogram of recovery totals, all surfaced through the
// registry (/varz, /metricsz). Every recovery completes with one event —
// System.FailNode/FailLink's on the virtual clock, the ctlnet leader's on the
// wall clock — so each event is one recovery.
type SLOWatchdog struct {
	cfg SLOConfig

	mRecoveries *Counter
	mBreaches   *Counter
	gBurnPPM    *Gauge
	gBudget     *Gauge
	hTotal      *Histogram

	mu     sync.Mutex
	window [sloWindow]bool // ring of the last recoveries audited: breached?
	next   int
	filled bool
}

// NewSLOWatchdog builds a watchdog; attach it to a bus to start auditing.
func NewSLOWatchdog(cfg SLOConfig) *SLOWatchdog {
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
	w.window[w.next] = breach
	w.next++
	if w.next == len(w.window) {
		w.next = 0
		w.filled = true
	}
	held := w.window[:w.next]
	if w.filled {
		held = w.window[:]
	}
	breached := 0
	for _, b := range held {
		if b {
			breached++
		}
	}
	w.mu.Unlock()

	w.mRecoveries.Inc()
	w.hTotal.Record(ev.Total.Nanoseconds())
	w.gBurnPPM.Set(int64(float64(breached) / float64(len(held)) * 1e6))
	if breach {
		w.mBreaches.Inc()
	}
}
