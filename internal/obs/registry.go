package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. Increment it from
// any goroutine without locks; hold the *Counter (from Registry.Counter) at
// wire-up time so the hot path never touches the registry map.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable level (queue depths, a replica's term).
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the level by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry names counters, gauges and histograms and exports them (/varz
// JSON, /metricsz Prometheus text). Lookup
// (get-or-create) takes a lock; the returned handles are lock-free, so
// components resolve their handles once at construction time.
// All methods are nil-safe.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// DefaultRegistry is the process-wide registry, the metrics analogue of the
// Default bus: the commands point their -debug-addr /varz at it and thread
// it into the systems and simulators they build.
var DefaultRegistry = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Export is a point-in-time copy of every metric in a registry — the JSON
// body debughttp's /varz serves. Histogram values carry their quantiles.
type Export struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Export snapshots the registry. Histogram bucket detail is included when
// buckets is true; quantiles and order statistics always are.
func (r *Registry) Export(buckets bool) Export {
	out := Export{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return out
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		hists[name] = h
	}
	r.mu.Unlock()
	for name, c := range counters {
		out.Counters[name] = c.Value()
	}
	for name, g := range gauges {
		out.Gauges[name] = g.Value()
	}
	for name, h := range hists {
		s := h.Snapshot()
		if !buckets {
			s.Buckets = nil
		}
		out.Histograms[name] = s
	}
	return out
}

// promName sanitizes a registry metric name into the Prometheus exposition
// charset [a-zA-Z0-9_:], mapping everything else (the registry's dots) to _.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// PromText renders the registry in the Prometheus text exposition format
// (version 0.0.4) — the /metricsz body, scrapeable by any Prometheus-style
// collector. Counters and gauges become single samples with # TYPE lines;
// histograms are rendered as summaries (quantile-labeled samples plus _sum
// and _count), since the log-linear buckets carry their quantiles exactly.
func (r *Registry) PromText() string {
	if r == nil {
		return ""
	}
	ex := r.Export(false)
	var b strings.Builder
	sortedKeys := func(n int, iter func(func(string))) []string {
		keys := make([]string, 0, n)
		iter(func(k string) { keys = append(keys, k) })
		sort.Strings(keys)
		return keys
	}
	for _, name := range sortedKeys(len(ex.Counters), func(f func(string)) {
		for k := range ex.Counters {
			f(k)
		}
	}) {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", pn, pn, ex.Counters[name])
	}
	for _, name := range sortedKeys(len(ex.Gauges), func(f func(string)) {
		for k := range ex.Gauges {
			f(k)
		}
	}) {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", pn, pn, ex.Gauges[name])
	}
	for _, name := range sortedKeys(len(ex.Histograms), func(f func(string)) {
		for k := range ex.Histograms {
			f(k)
		}
	}) {
		h := ex.Histograms[name]
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s summary\n", pn)
		fmt.Fprintf(&b, "%s{quantile=\"0.5\"} %d\n", pn, h.P50)
		fmt.Fprintf(&b, "%s{quantile=\"0.9\"} %d\n", pn, h.P90)
		fmt.Fprintf(&b, "%s{quantile=\"0.99\"} %d\n", pn, h.P99)
		fmt.Fprintf(&b, "%s_sum %d\n", pn, h.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", pn, h.Count)
	}
	return b.String()
}
