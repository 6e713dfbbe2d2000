package main

import (
	"strings"
	"testing"
	"time"

	"sharebackup/internal/obs"
)

func mkEvent(shard, seq uint64) obs.Event {
	ev := obs.NewEvent(obs.KindLog, time.Millisecond)
	ev.Shard = shard
	ev.Seq = seq
	return ev
}

// Two interleaved shard streams, each seq 1..5, must not read as gaps: the
// per-shard grouping is what keeps sweep traces from drowning in spurious
// loss warnings.
func TestSeqLossGroupsByShard(t *testing.T) {
	var evs []obs.Event
	for seq := uint64(1); seq <= 5; seq++ {
		evs = append(evs, mkEvent(1, seq), mkEvent(2, seq))
	}
	if lost, gaps := seqLoss(evs); lost != 0 || gaps != 0 {
		t.Fatalf("interleaved complete streams read as lost=%d gaps=%d, want 0/0", lost, gaps)
	}

	// A real hole inside one shard's stream is still caught.
	evs = append(evs, mkEvent(1, 7)) // shard 1 is missing seq 6
	if lost, gaps := seqLoss(evs); lost != 1 || gaps != 1 {
		t.Fatalf("real gap read as lost=%d gaps=%d, want 1/1", lost, gaps)
	}

	if got := shardCount(evs); got != 2 {
		t.Fatalf("shardCount = %d, want 2", got)
	}
}

// Span IDs are per-bus counters, so a trace that interleaves two sweep
// shards reuses span ID 1 in both streams. collectSpans must keep them
// apart (one completed span per shard), not merge them into a single span
// that would halve the breakdown's recovery count.
func TestCollectSpansDeinterleavesShards(t *testing.T) {
	span := func(shard uint64, total time.Duration) []obs.Event {
		fd := obs.NewEvent(obs.KindFailureDeclared, 0)
		fd.Shard, fd.Span = shard, 1
		done := obs.NewEvent(obs.KindRecoveryComplete, total)
		done.Shard, done.Span = shard, 1
		done.Detail = "node"
		done.Total = total
		return []obs.Event{fd, done}
	}
	// Interleave the two shards' events the way concurrent workers would.
	a, b := span(1, time.Millisecond), span(2, 2*time.Millisecond)
	evs := []obs.Event{a[0], b[0], b[1], a[1]}

	shards, spans := collectSpans(evs)
	if len(shards) != 2 || len(spans) != 2 {
		t.Fatalf("got %d shards, %d spans, want 2/2", len(shards), len(spans))
	}
	for _, ss := range spans {
		if !ss.span.Complete {
			t.Fatalf("shard %d span incomplete", ss.shard)
		}
	}
	if n := obs.NewBreakdown(spansOf(spans), "").N(); n != 2 {
		t.Fatalf("breakdown aggregated %d recoveries, want 2", n)
	}
}

// TestControlPlaneSummaryGolden pins the control-plane timeline rendering:
// elections, stepdowns, and agent failovers each get a line, the header
// counts them and reports the highest term seen, and a trace without any
// such events renders nothing at all.
func TestControlPlaneSummaryGolden(t *testing.T) {
	role := func(kind obs.Kind, t time.Duration, replica, term int32) obs.Event {
		ev := obs.NewEvent(kind, t)
		ev.Switch, ev.Count = replica, term
		return ev
	}
	fo := obs.NewEvent(obs.KindFailover, 9*time.Millisecond)
	fo.Switch = 12
	fo.Detail = "127.0.0.1:41000"
	fo.Count = 2
	evs := []obs.Event{
		role(obs.KindLeaderElected, 1*time.Millisecond, 0, 1),
		role(obs.KindLeaderLost, 8*time.Millisecond, 0, 1),
		fo,
		role(obs.KindLeaderElected, 10*time.Millisecond, 2, 3),
	}
	want := "control plane: 2 elections, 1 stepdowns, 1 agent failovers (max term 3)\n" +
		"           1ms  leader-elected  replica=0 term=1\n" +
		"           8ms  leader-lost     replica=0 term=1\n" +
		"           9ms  agent-failover  switch=12 -> 127.0.0.1:41000 (connection 2)\n" +
		"          10ms  leader-elected  replica=2 term=3\n"
	if got := controlPlaneSummary(evs); got != want {
		t.Errorf("controlPlaneSummary:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Single-controller traces stay clean: no header, no empty section.
	plain := []obs.Event{mkEvent(0, 1), mkEvent(0, 2)}
	if got := controlPlaneSummary(plain); got != "" {
		t.Errorf("summary on plain trace: %q", got)
	}
}

// The stitched span tree names leadership changes and failover hops so a
// leader kill mid-recovery is legible in sbtap -stitch output.
func TestStitchRendersLeadershipEvents(t *testing.T) {
	const trace = uint64(0x77)
	fail := obs.NewEvent(obs.KindFailureDeclared, time.Millisecond)
	fail.Span, fail.Trace = 1, trace
	fail.Detail = "link"
	fo := obs.NewEvent(obs.KindFailover, 2*time.Millisecond)
	fo.Span, fo.Trace = 1, trace
	fo.Switch, fo.Detail, fo.Count = 12, "127.0.0.1:41000", 2
	elected := obs.NewEvent(obs.KindLeaderElected, 3*time.Millisecond)
	elected.Span, elected.Trace = 1, trace
	elected.Switch, elected.Count = 1, 4
	lost := obs.NewEvent(obs.KindLeaderLost, 4*time.Millisecond)
	lost.Span, lost.Trace = 1, trace
	lost.Switch, lost.Count = 0, 3

	procs := []obs.ProcTrace{{Name: "agent-12", Events: []obs.Event{fail, fo, elected, lost}}}
	for i := range procs[0].Events {
		procs[0].Events[i].Proc = procs[0].Name
	}
	res, err := obs.Stitch(procs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(res.Traces))
	}
	out := res.Traces[0].Render()
	for _, want := range []string{
		"failover -> 127.0.0.1:41000 (connection 2)",
		"leader-elected replica=1 term=4",
		"leader-lost replica=0 term=3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// Untagged events (shard 0, the process bus) form their own stream alongside
// tagged ones.
func TestSeqLossUntaggedStream(t *testing.T) {
	evs := []obs.Event{
		mkEvent(0, 1), mkEvent(0, 2), mkEvent(0, 5), // process bus lost 3,4
		mkEvent(3, 1), mkEvent(3, 2),
	}
	if lost, gaps := seqLoss(evs); lost != 2 || gaps != 1 {
		t.Fatalf("lost=%d gaps=%d, want 2/1", lost, gaps)
	}
}
