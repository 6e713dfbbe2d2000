package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"
)

// ProcTrace is one event stream, as read from a JSONL trace. Name labels
// the events that carry no Proc stamp of their own (a stream from a bus
// that was never named, such as sbemu -fail-path's).
type ProcTrace struct {
	Name   string
	Events []Event
}

// StitchedSpan is one process-local span placed in a cross-process trace.
type StitchedSpan struct {
	Proc     string
	Span     *Span
	Parent   *StitchedSpan // nil for the trace root (or an orphan)
	Children []*StitchedSpan
	// Start is the span's earliest known event time: events stamped with a
	// negative (unknown) time are ignored, and a span with no known time
	// starts at 0.
	Start time.Duration
	// Orphan marks a span whose Parent reference did not resolve to any
	// span in the stitched streams.
	Orphan bool
}

// StitchedTrace is one causal recovery across processes: every span that
// carried the same trace ID, linked parent to child.
type StitchedTrace struct {
	Trace uint64
	Roots []*StitchedSpan
	Spans []*StitchedSpan // all spans, roots first, then children in DFS order
}

// StitchResult is the outcome of stitching event streams into traces.
type StitchResult struct {
	// Traces holds the stitched cross-process traces, ordered by start
	// time.
	Traces []*StitchedTrace
	// Unstitchable collects integrity problems: parent references naming
	// spans absent from the streams.
	Unstitchable []string
}

type procSpanKey struct {
	proc string
	span uint64
}

// Stitch is the one span builder: it groups span-tagged events by (Proc,
// Span) — span IDs are per-bus counters, so two processes' span 1 are two
// spans — and links the spans into cross-process traces by their trace IDs
// and (proc-qualified) parent references. Every bus stamps its process name
// (Bus.SetProc), so one file can interleave any number of processes; a
// stream's Name labels the events that carry none. The processes must share
// one epoch, as the emulated processes of one OS process do (every
// wall-clock emitter stamps obs.Now), so no timestamp is shifted.
//
// The result is a function of the input order alone: traces, roots and
// children are ordered by start time, and ties keep first-seen order.
func Stitch(procs []ProcTrace) (*StitchResult, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("obs: nothing to stitch")
	}
	var (
		spans    = make(map[procSpanKey]*StitchedSpan)
		order    []*StitchedSpan // spans, first seen first
		traceOf  = make(map[uint64]*StitchedTrace)
		res      = &StitchResult{}
		anyEvent bool
	)
	for _, pt := range procs {
		for _, ev := range pt.Events {
			anyEvent = true
			if ev.Span == 0 || ev.Trace == 0 {
				continue
			}
			if ev.Proc == "" {
				ev.Proc = pt.Name
			}
			key := procSpanKey{ev.Proc, ev.Span}
			ss := spans[key]
			if ss == nil {
				ss = &StitchedSpan{Proc: ev.Proc, Span: &Span{ID: ev.Span}, Start: -1}
				spans[key] = ss
				order = append(order, ss)
				tr := traceOf[ev.Trace]
				if tr == nil {
					tr = &StitchedTrace{Trace: ev.Trace}
					traceOf[ev.Trace] = tr
					res.Traces = append(res.Traces, tr)
				}
				tr.Spans = append(tr.Spans, ss)
			}
			if ev.T >= 0 && (ss.Start < 0 || ev.T < ss.Start) {
				ss.Start = ev.T
			}
			sp := ss.Span
			sp.Events = append(sp.Events, ev)
			if ev.Kind == KindRecoveryComplete {
				sp.Complete = true
				sp.Kind = ev.Detail
				sp.Detection = ev.Detection
				sp.Report = ev.Report
				sp.Reconfig = ev.Reconfig
				sp.Total = ev.Total
			}
		}
	}
	if !anyEvent {
		return nil, fmt.Errorf("obs: no events to stitch")
	}
	// Link parents. A parent reference names (ParentProc, Parent); an
	// empty ParentProc means "same process".
	for _, ss := range order {
		ss.Start = max(ss.Start, 0) // no known time: start at 0
		ev := ss.Span.Events[0]
		if ev.Parent == 0 {
			continue
		}
		pproc := ev.ParentProc
		if pproc == "" {
			pproc = ss.Proc
		}
		parent := spans[procSpanKey{pproc, ev.Parent}]
		if parent == nil {
			ss.Orphan = true
			res.Unstitchable = append(res.Unstitchable,
				fmt.Sprintf("trace %x: span %s/%d references missing parent %s/%d",
					ev.Trace, ss.Proc, ss.Span.ID, pproc, ev.Parent))
			continue
		}
		ss.Parent = parent
		parent.Children = append(parent.Children, ss)
	}
	// Order the traces by their earliest span, then each trace: roots (and
	// orphans) by start time, children DFS.
	byStart := func(a, b *StitchedSpan) int { return cmp.Compare(a.Start, b.Start) }
	for _, tr := range res.Traces {
		slices.SortStableFunc(tr.Spans, byStart)
	}
	slices.SortStableFunc(res.Traces, func(a, b *StitchedTrace) int { return byStart(a.Spans[0], b.Spans[0]) })
	for _, tr := range res.Traces {
		for _, ss := range tr.Spans {
			slices.SortStableFunc(ss.Children, byStart)
			if ss.Parent == nil {
				tr.Roots = append(tr.Roots, ss)
			}
		}
		ordered := make([]*StitchedSpan, 0, len(tr.Spans))
		var walk func(*StitchedSpan)
		walk = func(ss *StitchedSpan) {
			ordered = append(ordered, ss)
			for _, c := range ss.Children {
				walk(c)
			}
		}
		for _, r := range tr.Roots {
			walk(r)
		}
		tr.Spans = ordered
	}
	return res, nil
}

// PhaseAttribution maps each Table-2 phase to the process (hop) that spent
// it, for one stitched trace: detection on the reporting agent (or the
// controller's detector for node failures), report and reconfiguration on
// the controller span, with per-circuit-switch reconfiguration under the
// circuit-switch agents' spans.
type PhaseAttribution struct {
	Phase string
	Proc  string
	Value time.Duration
}

// Attribution extracts the per-hop phase breakdown of a stitched trace.
// Detection is charged once, to the trace root's failure declaration: the
// declarations below it (a controller's, under the agent that reported the
// link) restate the detection the root measured.
func (tr *StitchedTrace) Attribution() []PhaseAttribution {
	var out []PhaseAttribution
	detected := false
	for _, ss := range tr.Spans {
		for _, ev := range ss.Span.Events {
			switch ev.Kind {
			case KindFailureDeclared:
				if ss.Parent == nil && !detected && ev.Detection > 0 {
					detected = true
					out = append(out, PhaseAttribution{"detection", ss.Proc, ev.Detection})
				}
			case KindRecoveryComplete:
				out = append(out, PhaseAttribution{"report", ss.Proc, ev.Report})
				out = append(out, PhaseAttribution{"reconfig", ss.Proc, ev.Reconfig})
				out = append(out, PhaseAttribution{"total", ss.Proc, ev.Total})
			case KindCircuitReconfigured:
				if ev.Proc != "" && ss.Proc == ev.Proc && ev.Reconfig > 0 {
					out = append(out, PhaseAttribution{"reconfig", ss.Proc, ev.Reconfig})
				}
			}
		}
	}
	return out
}

// Render draws the stitched trace as an indented span tree with per-hop
// phases — the sbtap -spans view.
func (tr *StitchedTrace) Render() string {
	var b strings.Builder
	kind := ""
	for _, ss := range tr.Spans {
		if ss.Span.Kind != "" {
			kind = ss.Span.Kind
			break
		}
	}
	fmt.Fprintf(&b, "trace %x (%s recovery, %d spans)\n", tr.Trace, orUnknown(kind), len(tr.Spans))
	depth := make(map[*StitchedSpan]int)
	for _, ss := range tr.Spans {
		d := 0
		if ss.Parent != nil {
			d = depth[ss.Parent] + 1
		}
		depth[ss] = d
		indent := strings.Repeat("  ", d+1)
		status := ""
		if ss.Orphan {
			status = " ORPHAN(missing parent)"
		}
		fmt.Fprintf(&b, "%s%s/span %d @ %v (%d events)%s\n", indent, ss.Proc, ss.Span.ID, ss.Start, len(ss.Span.Events), status)
		for _, ev := range ss.Span.Events {
			switch ev.Kind {
			case KindFailureDeclared:
				fmt.Fprintf(&b, "%s  failure-declared detection=%v\n", indent, ev.Detection)
			case KindRecoveryComplete:
				fmt.Fprintf(&b, "%s  recovery-complete detection=%v report=%v reconfig=%v total=%v\n",
					indent, ev.Detection, ev.Report, ev.Reconfig, ev.Total)
			case KindCircuitReconfigured:
				fmt.Fprintf(&b, "%s  circuit-reconfigured reconfig=%v\n", indent, ev.Reconfig)
			case KindFailover:
				fmt.Fprintf(&b, "%s  failover -> %s (connection %d)\n", indent, ev.Detail, ev.Count)
			case KindLeaderElected:
				fmt.Fprintf(&b, "%s  leader-elected replica=%d term=%d\n", indent, ev.Switch, ev.Count)
			case KindLeaderLost:
				fmt.Fprintf(&b, "%s  leader-lost replica=%d term=%d\n", indent, ev.Switch, ev.Count)
			}
		}
	}
	if attr := tr.Attribution(); len(attr) > 0 {
		b.WriteString("  hop attribution:")
		for _, a := range attr {
			if a.Phase == "total" {
				continue
			}
			fmt.Fprintf(&b, " %s[%s]=%v", a.Phase, a.Proc, a.Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}
