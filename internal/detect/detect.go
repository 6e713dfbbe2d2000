// Package detect models the rapid failure detection ShareBackup adopts from
// F10 (Section 4.1): the two endpoints of every link continuously exchange
// test packets that exercise three things — the physical interface, the data
// link, and the peer's forwarding engine. A monitor declares the link down
// after a configurable number of consecutively missed probes, and reports
// which check failed first, feeding the controller's link-failure path.
//
// Time is virtual (time.Duration since an epoch), like the controller's, so
// detection latency is exact and deterministic in tests and experiments.
package detect

import (
	"fmt"
	"time"
)

// CheckKind is one of F10's three probe targets.
type CheckKind uint8

const (
	// CheckInterface tests the physical interface (light/levels).
	CheckInterface CheckKind = iota
	// CheckDataLink tests framing across the link.
	CheckDataLink
	// CheckForwarding tests the peer's forwarding engine (a probe that
	// must be forwarded back).
	CheckForwarding
	numChecks
)

// String names the check.
func (c CheckKind) String() string {
	switch c {
	case CheckInterface:
		return "interface"
	case CheckDataLink:
		return "data-link"
	case CheckForwarding:
		return "forwarding-engine"
	default:
		return fmt.Sprintf("check(%d)", uint8(c))
	}
}

// Oracle reports the ground truth of one check at probe time. True means
// the probe succeeds.
type Oracle func(kind CheckKind) bool

// Config tunes a monitor.
type Config struct {
	// Interval is the probing interval. The paper assumes the same
	// interval as F10/Aspen; default 1 ms.
	Interval time.Duration
	// MissThreshold is how many consecutive misses of any single check
	// declare the link down. Default 3.
	MissThreshold int
}

func (c *Config) setDefaults() {
	if c.Interval == 0 {
		c.Interval = time.Millisecond
	}
	if c.MissThreshold == 0 {
		c.MissThreshold = 3
	}
}

// Event is a detection verdict.
type Event struct {
	// Kind is the first check that crossed the miss threshold.
	Kind CheckKind
	// At is when the link was declared down.
	At time.Duration
	// Latency is At minus the time of the first missed probe — the
	// detection delay the recovery latency budget pays.
	Latency time.Duration
}

// Monitor watches one link endpoint.
type Monitor struct {
	cfg    Config
	oracle Oracle

	misses    [numChecks]int
	firstMiss [numChecks]time.Duration
	down      bool
	lastProbe time.Duration
}

// NewMonitor builds a monitor over the oracle.
func NewMonitor(cfg Config, oracle Oracle) (*Monitor, error) {
	if oracle == nil {
		return nil, fmt.Errorf("detect: nil oracle")
	}
	cfg.setDefaults()
	if cfg.Interval <= 0 || cfg.MissThreshold <= 0 {
		return nil, fmt.Errorf("detect: interval %v and threshold %d must be positive", cfg.Interval, cfg.MissThreshold)
	}
	return &Monitor{cfg: cfg, oracle: oracle}, nil
}

// Down reports whether the monitor has declared the link down.
func (m *Monitor) Down() bool { return m.down }

// Advance drives the monitor's probe loop from its last probe time through
// `now`, returning a detection event if the miss threshold was crossed.
// After declaring down, the monitor stays down until Reset.
func (m *Monitor) Advance(now time.Duration) (Event, bool) {
	if m.down {
		return Event{}, false
	}
	for t := m.lastProbe + m.cfg.Interval; t <= now; t += m.cfg.Interval {
		m.lastProbe = t
		for k := CheckKind(0); k < numChecks; k++ {
			if m.oracle(k) {
				m.misses[k] = 0
				continue
			}
			if m.misses[k] == 0 {
				m.firstMiss[k] = t
			}
			m.misses[k]++
			if m.misses[k] >= m.cfg.MissThreshold {
				m.down = true
				return Event{
					Kind:    k,
					At:      t,
					Latency: t - m.firstMiss[k] + m.cfg.Interval,
				}, true
			}
		}
	}
	return Event{}, false
}

// Reset clears state after the link is repaired or the switch replaced.
func (m *Monitor) Reset() {
	m.down = false
	for k := range m.misses {
		m.misses[k] = 0
	}
}

// WorstCaseLatency returns the maximum detection latency the configuration
// permits: MissThreshold probe intervals (plus one interval of phase).
func (c Config) WorstCaseLatency() time.Duration {
	cfg := c
	cfg.setDefaults()
	return time.Duration(cfg.MissThreshold+1) * cfg.Interval
}

// LinkMonitor pairs the two endpoint monitors of a link, mirroring the
// paper: "switches and hosts keep sending packets to each other"; when a
// link fails, both sides detect it and both report to the controller.
type LinkMonitor struct {
	A, B *Monitor
}

// NewLinkMonitor builds the pair. Each side gets its own oracle: a fault in
// one side's interface breaks both directions, but the sides may observe
// different first-failing checks.
func NewLinkMonitor(cfg Config, a, b Oracle) (*LinkMonitor, error) {
	ma, err := NewMonitor(cfg, a)
	if err != nil {
		return nil, err
	}
	mb, err := NewMonitor(cfg, b)
	if err != nil {
		return nil, err
	}
	return &LinkMonitor{A: ma, B: mb}, nil
}

// Advance drives both sides and returns their events, if any.
func (lm *LinkMonitor) Advance(now time.Duration) (evA, evB Event, downA, downB bool) {
	evA, downA = lm.A.Advance(now)
	evB, downB = lm.B.Advance(now)
	return
}
