package obs

import (
	"fmt"
	"sort"
	"time"

	"sharebackup/internal/metrics"
)

// Span is one recovery timeline: every event one process emitted under the
// same span ID, plus the phase breakdown lifted from its recovery-complete
// event. Stitch builds them.
type Span struct {
	ID     uint64
	Kind   string // "node" or "link" (from the recovery-complete Detail)
	Events []Event

	// Complete is true once the span's recovery-complete event arrived.
	Complete bool
	// Phase breakdown (Section 5.3 / Table 2 of the reproduction):
	// Detection is failure-to-noticed, Report the switch-to-controller and
	// controller-to-circuit-switch communication, Reconfig the circuit
	// reconfiguration latency.
	Detection, Report, Reconfig, Total time.Duration
}

// NewBreakdown aggregates the completed spans' phase samples, in span
// order. kind filters by recovery kind ("node", "link"); the empty string
// aggregates all.
func NewBreakdown(spans []*Span, kind string) *Breakdown {
	b := &Breakdown{}
	for _, sp := range spans {
		if !sp.Complete || (kind != "" && sp.Kind != kind) {
			continue
		}
		b.Add(sp.Detection, sp.Report, sp.Reconfig, sp.Total)
	}
	return b
}

// Breakdown holds per-phase latency samples in microseconds, the unit of the
// paper's Section 5.3 budget.
type Breakdown struct {
	Detection, Report, Reconfig, Total []float64
}

// Add appends one recovery's phases.
func (b *Breakdown) Add(detection, report, reconfig, total time.Duration) {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	b.Detection = append(b.Detection, us(detection))
	b.Report = append(b.Report, us(report))
	b.Reconfig = append(b.Reconfig, us(reconfig))
	b.Total = append(b.Total, us(total))
}

// N returns the number of recoveries aggregated.
func (b *Breakdown) N() int { return len(b.Total) }

// PhaseNames lists the phases in budget order.
var PhaseNames = []string{"detection", "report", "reconfig", "total"}

// Phase returns the samples of one named phase.
func (b *Breakdown) Phase(name string) ([]float64, error) {
	switch name {
	case "detection":
		return b.Detection, nil
	case "report":
		return b.Report, nil
	case "reconfig":
		return b.Reconfig, nil
	case "total":
		return b.Total, nil
	}
	return nil, fmt.Errorf("obs: unknown phase %q", name)
}

// Summaries computes the order statistics of every phase (microseconds).
func (b *Breakdown) Summaries() map[string]metrics.Summary {
	out := make(map[string]metrics.Summary, len(PhaseNames))
	for _, name := range PhaseNames {
		xs, _ := b.Phase(name)
		out[name] = metrics.Summarize(xs)
	}
	return out
}

// Table renders the phase breakdown as an aligned table (values in µs),
// phases in budget order.
func (b *Breakdown) Table(title string) *metrics.Table {
	tbl := &metrics.Table{
		Title:   title,
		Headers: []string{"phase", "n", "min(µs)", "mean(µs)", "p50(µs)", "p90(µs)", "p99(µs)", "max(µs)"},
	}
	sums := b.Summaries()
	for _, name := range PhaseNames {
		s := sums[name]
		tbl.AddRow(name, s.N, s.Min, s.Mean, s.Median, s.P90, s.P99, s.Max)
	}
	return tbl
}

// KindCounts tallies events by kind, rendered in kind order — the sbtap
// overview table.
func KindCounts(evs []Event) *metrics.Table {
	counts := make(map[Kind]int)
	for _, ev := range evs {
		counts[ev.Kind]++
	}
	kinds := make([]Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	tbl := &metrics.Table{Title: "events by kind", Headers: []string{"kind", "count"}}
	for _, k := range kinds {
		tbl.AddRow(k.String(), counts[k])
	}
	return tbl
}
