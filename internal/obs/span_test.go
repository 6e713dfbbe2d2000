package obs

import (
	"strings"
	"testing"
	"time"
)

// emitRecovery pushes a minimal recovery span onto the bus.
func emitRecovery(b *Bus, kind string, det, rep, rec time.Duration) {
	span := b.StartSpan(TraceContext{})
	fd := NewEvent(KindFailureDeclared, 0)
	span.Tag(&fd)
	fd.Detection = det
	b.Emit(fd)
	cr := NewEvent(KindCircuitReconfigured, -1)
	span.Tag(&cr)
	cr.Reconfig = rec
	b.Emit(cr)
	done := NewEvent(KindRecoveryComplete, det+rep+rec)
	span.Tag(&done)
	done.Detail = kind
	done.Detection, done.Report, done.Reconfig = det, rep, rec
	done.Total = det + rep + rec
	b.Emit(done)
}

// A bus' recoveries, collected in a Ring, stitch into one complete span each.
func TestSpanCollectorGroupsAndComputesBreakdown(t *testing.T) {
	b := &Bus{}
	ring := NewRing(64)
	b.Attach(ring)

	emitRecovery(b, "node", 3*time.Millisecond, 200*time.Microsecond, 70*time.Nanosecond)
	emitRecovery(b, "link", time.Millisecond, 200*time.Microsecond, 40*time.Microsecond)

	res, err := Stitch([]ProcTrace{{Events: ring.Events()}})
	if err != nil {
		t.Fatal(err)
	}
	var spans []*Span
	for _, tr := range res.Traces {
		for _, ss := range tr.Spans {
			spans = append(spans, ss.Span)
		}
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	for _, sp := range spans {
		if !sp.Complete {
			t.Fatalf("span %d incomplete", sp.ID)
		}
		if len(sp.Events) != 3 {
			t.Fatalf("span %d has %d events, want 3", sp.ID, len(sp.Events))
		}
		if sp.Detection+sp.Report+sp.Reconfig != sp.Total {
			t.Fatalf("span %d phases sum to %v, total %v", sp.ID, sp.Detection+sp.Report+sp.Reconfig, sp.Total)
		}
	}
	if spans[0].Kind != "node" || spans[1].Kind != "link" {
		t.Fatalf("span kinds = %q, %q", spans[0].Kind, spans[1].Kind)
	}

	all := NewBreakdown(spans, "")
	if all.N() != 2 {
		t.Fatalf("breakdown N = %d, want 2", all.N())
	}
	nodes := NewBreakdown(spans, "node")
	if nodes.N() != 1 {
		t.Fatalf("node breakdown N = %d, want 1", nodes.N())
	}
	sums := nodes.Summaries()
	if got, want := sums["detection"].Mean, 3000.0; got != want {
		t.Fatalf("node detection mean = %v µs, want %v", got, want)
	}
	if got, want := sums["total"].Mean, 3200.07; got != want {
		t.Fatalf("node total mean = %v µs, want %v", got, want)
	}

	tbl := all.Table("phase breakdown").String()
	for _, phase := range PhaseNames {
		if !strings.Contains(tbl, phase) {
			t.Fatalf("breakdown table missing phase %q:\n%s", phase, tbl)
		}
	}
}

// Events outside any span (Span == 0) start none.
func TestSpanCollectorIgnoresSpanlessEvents(t *testing.T) {
	res, err := Stitch([]ProcTrace{{Events: []Event{NewEvent(KindLog, 0)}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Traces {
		if len(tr.Spans) != 0 {
			t.Fatal("spanless event created a span")
		}
	}
}

func TestKindCounts(t *testing.T) {
	evs := []Event{
		NewEvent(KindFailureDeclared, 0),
		NewEvent(KindFailureDeclared, 0),
		NewEvent(KindRecoveryComplete, 0),
	}
	tbl := KindCounts(evs).String()
	if !strings.Contains(tbl, "failure-declared") || !strings.Contains(tbl, "recovery-complete") {
		t.Fatalf("kind counts table missing kinds:\n%s", tbl)
	}
}
