// Command sbtap tails or summarizes a JSONL event file produced by the
// -trace flag of sbemu or sbexperiments: the offline half of the
// observability pipeline. By default it reads the whole file (or
// stdin when no file is named) and prints an event census plus the Section
// 5.3 / Table 2 phase breakdown of every recovery span it contains.
//
// Usage:
//
//	sbtap trace.jsonl            # summarize
//	sbtap -spans trace.jsonl     # also list each recovery span
//	sbtap -hist trace.jsonl      # phase-latency histograms with quantiles
//	sbtap -f trace.jsonl         # follow: render events as they are appended
//	sbemu -fail-path -trace /dev/stdout | sbtap
//
// Multi-process traces (one JSONL file per process, as written by
// sbemu -ctlnet -trace-dir) are merged with -stitch: clock-sync events align
// the processes' independent epochs, and spans sharing a trace ID are linked
// into one causal tree per recovery with per-hop phase attribution:
//
//	sbtap -stitch dir/controller.jsonl dir/agent-*.jsonl dir/cs-*.jsonl
//
// -strict makes sbtap exit non-zero when the trace shows integrity problems:
// sequence gaps (events lost to a bounded sink) or, with -stitch,
// unstitchable references (spans whose parent is missing from the file set,
// processes with no clock-sync path to the reference).
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
		spans  = flag.Bool("spans", false, "list every recovery span with its phase breakdown")
		hist   = flag.Bool("hist", false, "render recovery phase latencies as bucketed histograms with p50/p90/p99")
		stitch = flag.Bool("stitch", false, "merge several per-process trace files into cross-process recovery timelines (clock-offset aligned)")
		strict = flag.Bool("strict", false, "exit non-zero on sequence gaps or (with -stitch) unstitchable trace references")
	)
	flag.Parse()

	if *stitch {
		if flag.NArg() == 0 {
			fatal(fmt.Errorf("-stitch needs at least one trace file"))
		}
		os.Exit(stitchFiles(flag.Args(), *strict))
	}

	var (
		in   io.Reader = os.Stdin
		name           = "stdin"
	)
	if flag.NArg() > 1 {
		fatal(fmt.Errorf("at most one input file, got %d (use -stitch to merge per-process traces)", flag.NArg()))
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
	exitCode := 0
	fmt.Print(obs.KindCounts(evs).String())
	fmt.Print(controlPlaneSummary(evs))
	if shards := shardCount(evs); shards > 1 {
		fmt.Printf("trace interleaves %d sweep shards (see the shard field; sequence numbers are per shard)\n", shards)
	}
	if lost, gaps := seqLoss(evs); lost > 0 {
		fmt.Printf("WARNING: %d events missing from the stream (%d sequence gaps) — a bounded sink dropped them (see obs.ring_dropped_events on /varz)\n",
			lost, gaps)
		if *strict {
			exitCode = 1
		}
	}

	if *hist {
		fmt.Print(phaseHistograms(evs))
	}

	shards, shardSpans := collectSpans(evs)
	flat := spansOf(shardSpans)
	all := obs.NewBreakdown(flat, "")
	if all.N() == 0 {
		fmt.Println("no completed recovery spans")
		os.Exit(exitCode)
	}
	fmt.Print(all.Table(fmt.Sprintf("recovery phase breakdown — all kinds (%d recoveries)", all.N())).String())
	for _, kind := range []string{"node", "link"} {
		if b := obs.NewBreakdown(flat, kind); b.N() > 0 {
			fmt.Print(b.Table(fmt.Sprintf("recovery phase breakdown — %s failures (%d recoveries)", kind, b.N())).String())
		}
	}
	if *spans {
		for _, ss := range shardSpans {
			status := "complete"
			if !ss.span.Complete {
				status = "incomplete"
			}
			tag := ""
			if len(shards) > 1 || ss.shard != 0 {
				tag = fmt.Sprintf("shard %d ", ss.shard)
			}
			fmt.Printf("%sspan %d (%s, %s): detection=%v report=%v reconfig=%v total=%v (%d events)\n",
				tag, ss.span.ID, ss.span.Kind, status,
				ss.span.Detection, ss.span.Report, ss.span.Reconfig, ss.span.Total, len(ss.span.Events))
		}
	}
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

// stitchFiles merges per-process trace files into cross-process recovery
// timelines and renders them. The exit code is non-zero only under strict
// when the file set shows integrity problems: sequence gaps inside any file,
// or unstitchable references across the set.
func stitchFiles(paths []string, strict bool) int {
	procs := make([]obs.ProcTrace, 0, len(paths))
	bad := false
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		evs, err := obs.ReadJSONL(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		name := strings.TrimSuffix(filepath.Base(path), ".jsonl")
		if lost, gaps := seqLoss(evs); lost > 0 {
			fmt.Printf("WARNING: %s: %d events missing from the stream (%d sequence gaps)\n", name, lost, gaps)
			bad = true
		}
		procs = append(procs, obs.ProcTrace{Name: name, Events: evs})
	}

	res, err := obs.Stitch(procs)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("stitched %d processes, reference clock %q\n", len(procs), res.Reference)
	names := make([]string, 0, len(res.Offsets))
	for n := range res.Offsets {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-20s epoch shift %v\n", n, res.Offsets[n])
	}
	if len(res.Traces) == 0 {
		fmt.Println("no recovery traces found")
	}
	for _, tr := range res.Traces {
		fmt.Printf("\ntrace %016x:\n%s", tr.Trace, tr.Render())
	}
	for _, u := range res.Unstitchable {
		fmt.Printf("UNSTITCHABLE: %s\n", u)
		bad = true
	}
	if strict && bad {
		return 1
	}
	return 0
}

// controlPlaneSummary renders the replicated-controller life events in a
// trace — replica elections, stepdowns, and agent failovers — as a timeline,
// so a leader change mid-storm is visible in the default summary without
// reaching for -stitch. Empty when the trace has no such events (the common
// single-controller case).
func controlPlaneSummary(evs []obs.Event) string {
	var b bytes.Buffer
	var elections, stepdowns, failovers int
	maxTerm := int32(0)
	for _, ev := range evs {
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
		default:
			continue
		}
		if ev.Count > maxTerm {
			maxTerm = ev.Count
		}
	}
	if b.Len() == 0 {
		return ""
	}
	head := fmt.Sprintf("control plane: %d elections, %d stepdowns, %d agent failovers (max term %d)\n",
		elections, stepdowns, failovers, maxTerm)
	return head + b.String()
}

// shardSpan ties a recovery span back to the sweep shard it ran on.
type shardSpan struct {
	shard uint64
	span  *obs.Span
}

// collectSpans groups events into recovery spans, de-interleaving sweep
// shards first: span IDs are per-bus counters, and every sweep worker runs
// on its own private bus, so a shared trace file reuses the same span IDs
// across shards. Collecting per shard tag (0 = the process bus) keeps each
// worker's recoveries separate instead of merging them into one mangled
// span. Returns the sorted shard tags and all spans in (shard, first-seen)
// order.
func collectSpans(evs []obs.Event) ([]uint64, []shardSpan) {
	cols := make(map[uint64]*obs.SpanCollector)
	var shards []uint64
	for _, ev := range evs {
		col := cols[ev.Shard]
		if col == nil {
			col = obs.NewSpanCollector()
			cols[ev.Shard] = col
			shards = append(shards, ev.Shard)
		}
		col.AddEvents([]obs.Event{ev})
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i] < shards[j] })
	var out []shardSpan
	for _, sh := range shards {
		for _, sp := range cols[sh].Spans() {
			out = append(out, shardSpan{shard: sh, span: sp})
		}
	}
	return shards, out
}

// spansOf drops the shard tags, for aggregating across every shard.
func spansOf(spans []shardSpan) []*obs.Span {
	out := make([]*obs.Span, len(spans))
	for i, ss := range spans {
		out[i] = ss.span
	}
	return out
}

// shardCount returns the number of distinct sweep shards in the trace
// (untagged events count as one source when present alongside tagged ones).
func shardCount(evs []obs.Event) int {
	shards := make(map[uint64]bool)
	for _, ev := range evs {
		shards[ev.Shard] = true
	}
	return len(shards)
}

// seqLoss detects event loss from holes in the bus-assigned sequence
// numbers: a JSONL file written through a bounded sink (a full ring, a slow
// /events client) silently misses events, but their Seqs never lie. Returns
// the number of missing events and the number of distinct gaps.
//
// A trace can interleave several sequence streams: sweep workers run on
// private buses whose Seqs each start at 1, shard-tagged into the shared
// file. Gap detection therefore groups by the events' shard tag (0 = the
// process bus) — without the grouping every interleaved shard would read as
// a forest of spurious gaps. Traces from buses that predate Seq assignment
// (all-zero) report no loss.
func seqLoss(evs []obs.Event) (lost, gaps int) {
	streams := make(map[uint64][]uint64)
	for _, ev := range evs {
		if ev.Seq == 0 {
			continue
		}
		key := ev.Shard
		if ev.Kind == obs.KindSweepShardDone {
			// Progress events carry the shard tag of the shard that
			// finished but are emitted (and sequence-numbered) on the
			// sweep's shared bus, not the worker's private one.
			key = 0
		}
		streams[key] = append(streams[key], ev.Seq)
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

// phaseHistograms aggregates the recovery phase latencies (and individual
// circuit reconfigurations) into log-bucketed histograms — the offline twin
// of the /varz quantiles, computed from a trace file instead of a live
// registry.
func phaseHistograms(evs []obs.Event) string {
	phases := []struct {
		name string
		get  func(obs.Event) time.Duration
	}{
		{"detection", func(e obs.Event) time.Duration { return e.Detection }},
		{"report", func(e obs.Event) time.Duration { return e.Report }},
		{"reconfig", func(e obs.Event) time.Duration { return e.Reconfig }},
		{"total", func(e obs.Event) time.Duration { return e.Total }},
	}
	var out bytes.Buffer
	for _, ph := range phases {
		h := &obs.Histogram{}
		for _, ev := range evs {
			if ev.Kind == obs.KindRecoveryComplete {
				h.Record(ph.get(ev).Nanoseconds())
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
