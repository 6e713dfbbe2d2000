// Command sbtap tails or summarizes a JSONL event file produced by the
// -trace flag of sbemu or sbexperiments: the offline half of the
// observability pipeline. It reads one file (or stdin when no file is named)
// and prints an event census plus the Section 5.3 / Table 2 phase breakdown
// of every recovery span it contains.
//
// Usage:
//
//	sbtap trace.jsonl            # summarize
//	sbtap -spans trace.jsonl     # also render each recovery's span tree
//	sbtap -hist trace.jsonl      # phase-latency histograms with quantiles
//	sbtap -f trace.jsonl         # follow: render events as they are appended
//	sbemu -fail-path -trace /dev/stdout | sbtap
//
// One file can interleave many event streams: the processes of sbemu
// -ctlnet (controller replicas, switch agents, circuit switches) or the
// trials of a sweep. Every bus stamps its process name on its events, so
// sbtap checks each process' sequence numbers on their own and builds spans
// per process, linking them across processes by their trace IDs and parent
// references (obs.Stitch). -spans renders each causal recovery as a tree
// with per-hop phase attribution.
//
// -strict makes sbtap exit non-zero when the trace shows integrity problems:
// sequence gaps (events lost to a bounded sink) or unstitchable references
// (spans whose parent is missing from the trace).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sharebackup/internal/obs"
)

func main() {
	var (
		follow = flag.Bool("f", false, "follow the file: render events human-readably as they are appended")
		spans  = flag.Bool("spans", false, "render every recovery's span tree with per-hop phase attribution")
		hist   = flag.Bool("hist", false, "render recovery phase latencies as bucketed histograms with p50/p90/p99")
		strict = flag.Bool("strict", false, "exit non-zero on sequence gaps or unstitchable trace references")
	)
	flag.Parse()

	var (
		in   io.Reader = os.Stdin
		name           = "stdin"
	)
	if flag.NArg() > 1 {
		fatal(fmt.Errorf("at most one input file, got %d", flag.NArg()))
	}
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in, name = f, flag.Arg(0)
	}

	if *follow {
		if err := tail(in); err != nil {
			fatal(err)
		}
		return
	}

	evs, err := obs.ReadJSONL(in)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	if len(evs) == 0 {
		fmt.Printf("%s: no events\n", name)
		return
	}
	bad := false
	fmt.Print(obs.KindCounts(evs).String())
	fmt.Print(controlPlaneSummary(evs))
	if lost, gaps := seqLoss(evs); lost > 0 {
		fmt.Printf("WARNING: %d events missing from the stream (%d sequence gaps) — a bounded sink dropped them (see obs.ring_dropped_events on /varz)\n",
			lost, gaps)
		bad = true
	}

	// Events of an unnamed bus (sbemu -fail-path) are labelled by the file.
	res, err := obs.Stitch([]obs.ProcTrace{{Name: strings.TrimSuffix(filepath.Base(name), ".jsonl"), Events: evs}})
	if err != nil {
		fatal(err)
	}
	var all []*obs.Span
	for _, tr := range res.Traces {
		for _, ss := range tr.Spans {
			all = append(all, ss.Span)
		}
	}
	if *hist {
		fmt.Print(phaseHistograms(evs, all))
	}
	if b := obs.NewBreakdown(all, ""); b.N() == 0 {
		fmt.Println("no completed recovery spans")
	} else {
		fmt.Print(b.Table(fmt.Sprintf("recovery phase breakdown — all kinds (%d recoveries)", b.N())).String())
		for _, kind := range []string{"node", "link"} {
			if b := obs.NewBreakdown(all, kind); b.N() > 0 {
				fmt.Print(b.Table(fmt.Sprintf("recovery phase breakdown — %s failures (%d recoveries)", kind, b.N())).String())
			}
		}
	}
	if *spans {
		for _, tr := range res.Traces {
			fmt.Printf("\n%s", tr.Render())
		}
	}
	for _, u := range res.Unstitchable {
		fmt.Printf("UNSTITCHABLE: %s\n", u)
		bad = true
	}
	if *strict && bad {
		os.Exit(1)
	}
}

// controlPlaneSummary renders the replicated-controller life events in a
// trace — replica elections, stepdowns, and agent failovers — as a timeline
// in time order (a trace interleaves processes, so file order is not), so a
// leader change mid-storm is visible in the default summary without
// reaching for -spans. Empty when the trace has no such events (the common
// single-controller case).
func controlPlaneSummary(evs []obs.Event) string {
	var timeline []obs.Event
	for _, ev := range evs {
		switch ev.Kind {
		case obs.KindLeaderElected, obs.KindLeaderLost, obs.KindFailover:
			timeline = append(timeline, ev)
		}
	}
	if len(timeline) == 0 {
		return ""
	}
	sort.SliceStable(timeline, func(i, j int) bool { return timeline[i].T < timeline[j].T })
	var b bytes.Buffer
	var elections, stepdowns, failovers int
	maxTerm := int32(0)
	for _, ev := range timeline {
		switch ev.Kind {
		case obs.KindLeaderElected:
			elections++
			fmt.Fprintf(&b, "  %12v  leader-elected  replica=%d term=%d\n", ev.T, ev.Switch, ev.Count)
		case obs.KindLeaderLost:
			stepdowns++
			fmt.Fprintf(&b, "  %12v  leader-lost     replica=%d term=%d\n", ev.T, ev.Switch, ev.Count)
		case obs.KindFailover:
			failovers++
			fmt.Fprintf(&b, "  %12v  agent-failover  switch=%d -> %s (connection %d)\n", ev.T, ev.Switch, ev.Detail, ev.Count)
			continue
		}
		if ev.Count > maxTerm {
			maxTerm = ev.Count
		}
	}
	head := fmt.Sprintf("control plane: %d elections, %d stepdowns, %d agent failovers (max term %d)\n",
		elections, stepdowns, failovers, maxTerm)
	return head + b.String()
}

// seqLoss detects event loss from holes in the bus-assigned sequence
// numbers: a JSONL file written through a bounded sink (a full ring, a slow
// /events client) silently misses events, but their Seqs never lie. Returns
// the number of missing events and the number of distinct gaps.
//
// A trace can interleave several sequence streams: every bus numbers its
// own events from 1, and each stamps its process name on them. Gap
// detection therefore groups by the events' Proc — without the grouping
// every interleaved process would read as a forest of spurious gaps. Traces
// from buses that predate Seq assignment (all-zero) report no loss.
func seqLoss(evs []obs.Event) (lost, gaps int) {
	streams := make(map[string][]uint64)
	for _, ev := range evs {
		if ev.Seq != 0 {
			streams[ev.Proc] = append(streams[ev.Proc], ev.Seq)
		}
	}
	for _, seqs := range streams {
		if len(seqs) < 2 {
			continue
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for i := 1; i < len(seqs); i++ {
			if d := seqs[i] - seqs[i-1]; d > 1 {
				lost += int(d - 1)
				gaps++
			}
		}
	}
	return lost, gaps
}

// phaseHistograms aggregates the completed recovery spans' phase latencies
// (and the trace's individual circuit reconfigurations) into log-bucketed
// histograms — the offline twin of the /varz quantiles, computed from a trace
// file instead of a live registry. It counts spans, as the breakdown does.
func phaseHistograms(evs []obs.Event, spans []*obs.Span) string {
	phases := []struct {
		name string
		get  func(*obs.Span) time.Duration
	}{
		{"detection", func(s *obs.Span) time.Duration { return s.Detection }},
		{"report", func(s *obs.Span) time.Duration { return s.Report }},
		{"reconfig", func(s *obs.Span) time.Duration { return s.Reconfig }},
		{"total", func(s *obs.Span) time.Duration { return s.Total }},
	}
	var out bytes.Buffer
	for _, ph := range phases {
		h := &obs.Histogram{}
		for _, sp := range spans {
			if sp.Complete {
				h.Record(ph.get(sp).Nanoseconds())
			}
		}
		if h.Count() > 0 {
			out.WriteString(h.Snapshot().Render("recovery "+ph.name+" latency (ns)", 40))
		}
	}
	h := &obs.Histogram{}
	for _, ev := range evs {
		if ev.Kind == obs.KindCircuitReconfigured {
			h.Record(ev.Reconfig.Nanoseconds())
		}
	}
	if h.Count() > 0 {
		out.WriteString(h.Snapshot().Render("per-circuit reconfiguration latency (ns)", 40))
	}
	if out.Len() == 0 {
		return "no recovery events to histogram\n"
	}
	return out.String()
}

// tail renders events as they arrive, polling past EOF so a live trace file
// can be watched while the producer is still running.
func tail(in io.Reader) error {
	r := bufio.NewReader(in)
	fileLike := isFile(in)
	var buf []byte
	emit := func() {
		line := bytes.TrimSpace(buf)
		buf = buf[:0]
		if len(line) == 0 {
			return
		}
		var ev obs.Event
		if err := json.Unmarshal(line, &ev); err == nil {
			fmt.Println(ev.String())
		}
	}
	for {
		chunk, err := r.ReadBytes('\n')
		buf = append(buf, chunk...)
		if bytes.HasSuffix(buf, []byte("\n")) {
			emit()
		}
		switch {
		case err == io.EOF && fileLike:
			// The producer may still be appending: poll for more.
			time.Sleep(200 * time.Millisecond)
		case err == io.EOF:
			emit() // pipe closed, flush any final unterminated line
			return nil
		case err != nil:
			return err
		}
	}
}

func isFile(r io.Reader) bool {
	f, ok := r.(*os.File)
	if !ok {
		return false
	}
	info, err := f.Stat()
	return err == nil && info.Mode().IsRegular()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sbtap:", err)
	os.Exit(1)
}
