package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// ProcTrace is one process' event stream, as read from its JSONL trace
// file. Name is a fallback label (typically the file basename) used when
// the events carry no Proc field of their own.
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
	// Start is the span's earliest event time.
	Start time.Duration
	// Orphan marks a span whose Parent reference did not resolve to any
	// span in the stitched file set.
	Orphan bool
}

// StitchedTrace is one causal recovery across processes: every span that
// carried the same trace ID, linked parent to child.
type StitchedTrace struct {
	Trace uint64
	Roots []*StitchedSpan
	Spans []*StitchedSpan // all spans, roots first, then children in DFS order
}

// StitchResult is the outcome of merging per-process trace files.
type StitchResult struct {
	// Procs lists every process seen, sorted.
	Procs []string
	// Traces holds the stitched cross-process traces, ordered by first
	// event time.
	Traces []*StitchedTrace
	// Unstitchable collects integrity problems: parent references naming
	// spans absent from the file set.
	Unstitchable []string
	// Events is the merged event stream (all processes), ordered by time.
	Events []Event
}

type procSpanKey struct {
	proc string
	span uint64
}

// Stitch merges per-process trace files into cross-process traces: it
// merges the events onto one timeline and links spans across processes via
// their trace IDs and (proc-qualified) parent references. The processes
// must share one epoch, as the emulated processes of one OS process do (every
// wall-clock emitter stamps obs.Now), so no timestamp is shifted.
func Stitch(procs []ProcTrace) (*StitchResult, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("obs: nothing to stitch")
	}
	// Resolve process names: prefer the events' own Proc stamp.
	events := make(map[string][]Event, len(procs))
	var names []string
	for _, pt := range procs {
		for _, ev := range pt.Events {
			name := ev.Proc
			if name == "" {
				name = pt.Name
			}
			if _, ok := events[name]; !ok {
				names = append(names, name)
			}
			events[name] = append(events[name], ev)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("obs: no events to stitch")
	}
	sort.Strings(names)

	res := &StitchResult{Procs: names}
	res.mergeEvents(events)
	res.linkSpans(events)
	return res, nil
}

// mergeEvents builds the single timeline.
func (res *StitchResult) mergeEvents(events map[string][]Event) {
	for proc, evs := range events {
		for _, ev := range evs {
			if ev.Proc == "" {
				ev.Proc = proc
			}
			res.Events = append(res.Events, ev)
		}
	}
	sort.SliceStable(res.Events, func(i, j int) bool { return res.Events[i].T < res.Events[j].T })
}

// linkSpans groups span-tagged events by trace ID and links parents.
func (res *StitchResult) linkSpans(events map[string][]Event) {
	spans := make(map[procSpanKey]*StitchedSpan)
	traceOf := make(map[uint64]*StitchedTrace)
	var traceOrder []uint64
	for proc, evs := range events {
		for _, ev := range evs {
			if ev.Span == 0 || ev.Trace == 0 {
				continue
			}
			key := procSpanKey{proc, ev.Span}
			ss := spans[key]
			if ss == nil {
				ss = &StitchedSpan{Proc: proc, Span: &Span{ID: ev.Span}, Start: ev.T}
				spans[key] = ss
				tr := traceOf[ev.Trace]
				if tr == nil {
					tr = &StitchedTrace{Trace: ev.Trace}
					traceOf[ev.Trace] = tr
					traceOrder = append(traceOrder, ev.Trace)
				}
				tr.Spans = append(tr.Spans, ss)
			}
			ss.Start = min(ss.Start, ev.T)
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
	// Link parents. A parent reference names (ParentProc, Parent); an
	// empty ParentProc means "same process".
	for key, ss := range spans {
		ev := ss.Span.Events[0]
		if ev.Parent == 0 {
			continue
		}
		pproc := ev.ParentProc
		if pproc == "" {
			pproc = key.proc
		}
		parent := spans[procSpanKey{pproc, ev.Parent}]
		if parent == nil {
			ss.Orphan = true
			res.Unstitchable = append(res.Unstitchable,
				fmt.Sprintf("trace %x: span %s/%d references missing parent %s/%d",
					ev.Trace, key.proc, key.span, pproc, ev.Parent))
			continue
		}
		ss.Parent = parent
		parent.Children = append(parent.Children, ss)
	}
	// Order each trace: roots (and orphans) by start time, children DFS.
	for _, id := range traceOrder {
		tr := traceOf[id]
		sort.Slice(tr.Spans, func(i, j int) bool { return tr.Spans[i].Start < tr.Spans[j].Start })
		for _, ss := range tr.Spans {
			sort.Slice(ss.Children, func(i, j int) bool { return ss.Children[i].Start < ss.Children[j].Start })
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
		res.Traces = append(res.Traces, tr)
	}
	sort.Slice(res.Traces, func(i, j int) bool {
		si, sj := res.Traces[i], res.Traces[j]
		ti, tj := time.Duration(-1), time.Duration(-1)
		if len(si.Spans) > 0 {
			ti = si.Spans[0].Start
		}
		if len(sj.Spans) > 0 {
			tj = sj.Spans[0].Start
		}
		return ti < tj
	})
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
func (tr *StitchedTrace) Attribution() []PhaseAttribution {
	var out []PhaseAttribution
	for _, ss := range tr.Spans {
		for _, ev := range ss.Span.Events {
			switch ev.Kind {
			case KindFailureDeclared:
				if ev.Detection > 0 {
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
// phases — the sbtap -stitch view.
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
