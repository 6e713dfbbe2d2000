package obs

import (
	"strings"
	"testing"
	"time"
)

func TestNilBusIsSafe(t *testing.T) {
	var b *Bus
	if b.Enabled() {
		t.Fatal("nil bus reports enabled")
	}
	b.Emit(NewEvent(KindLog, 0)) // must not panic
	b.Attach(NewRing(4))
	b.Detach(nil)
	if sp := b.StartSpan(TraceContext{Trace: 7, Span: 3}); sp != (SpanRef{}) {
		t.Fatalf("nil bus StartSpan = %+v, want the zero SpanRef", sp)
	}
	b.Logf(0, false, "ignored %d", 1)
}

func TestEmitDeliversToAllSinksInOrder(t *testing.T) {
	b := &Bus{}
	if b.Enabled() {
		t.Fatal("fresh bus reports enabled")
	}
	r1, r2 := NewRing(16), NewRing(16)
	b.Attach(r1)
	b.Attach(r2)
	if !b.Enabled() {
		t.Fatal("bus with sinks reports disabled")
	}
	for i := 0; i < 5; i++ {
		ev := NewEvent(KindFailureDeclared, time.Duration(i)*time.Millisecond)
		ev.Switch = int32(i)
		b.Emit(ev)
	}
	for _, r := range []*Ring{r1, r2} {
		evs := r.Events()
		if len(evs) != 5 {
			t.Fatalf("ring got %d events, want 5", len(evs))
		}
		for i, ev := range evs {
			if ev.Switch != int32(i) {
				t.Fatalf("event %d has switch %d", i, ev.Switch)
			}
			if ev.Seq == 0 {
				t.Fatalf("event %d has no sequence number", i)
			}
			if i > 0 && ev.Seq <= evs[i-1].Seq {
				t.Fatalf("sequence numbers not increasing: %d then %d", evs[i-1].Seq, ev.Seq)
			}
		}
	}
}

func TestDetachStopsDelivery(t *testing.T) {
	b := &Bus{}
	r := NewRing(16)
	b.Attach(r)
	b.Emit(NewEvent(KindLog, 0))
	b.Detach(r)
	if b.Enabled() {
		t.Fatal("bus still enabled after detaching only sink")
	}
	b.Emit(NewEvent(KindLog, 0))
	if got := len(r.Events()); got != 1 {
		t.Fatalf("ring saw %d events, want 1", got)
	}
}

func TestAttachIsIdempotent(t *testing.T) {
	b := &Bus{}
	r := NewRing(16)
	b.Attach(r)
	b.Attach(r)
	b.Emit(NewEvent(KindLog, 0))
	if got := len(r.Events()); got != 1 {
		t.Fatalf("double-attached ring saw %d events, want 1", got)
	}
}

// A span is a value: a root starts a fresh trace, a child joins its
// parent's, Tag stamps exactly the span's fields, Context names the span as
// the next hop's parent, and Emit adds no trace field of its own.
func TestSpanContext(t *testing.T) {
	b := &Bus{}
	b.SetProc("ctl")
	ring := NewRing(4)
	b.Attach(ring)
	root := b.StartSpan(TraceContext{})
	if root.ID != 1 || root.Trace == 0 || root.Parent != 0 || root.ParentProc != "" || root.Proc != "ctl" {
		t.Fatalf("root span = %+v, want ID 1 in a fresh trace, no parent, proc ctl", root)
	}
	remote := TraceContext{Trace: 42, Span: 9, Proc: "agent-3"}
	child := b.StartSpan(remote)
	want := SpanRef{ID: 2, Trace: 42, Parent: 9, ParentProc: "agent-3", Proc: "ctl"}
	if child != want {
		t.Fatalf("child span = %+v, want %+v", child, want)
	}
	if got := child.Context(); got != (TraceContext{Trace: 42, Span: 2, Proc: "ctl"}) {
		t.Fatalf("child context = %+v", got)
	}
	if b.StartSpan(TraceContext{}).Trace == root.Trace {
		t.Fatal("two roots share a trace")
	}
	ev := NewEvent(KindBackupAssigned, 0)
	child.Tag(&ev)
	b.Emit(ev)
	b.Emit(NewEvent(KindLog, 0)) // untagged: must stay outside every trace
	evs := ring.Events()
	if got := evs[0]; got.Span != 2 || got.Trace != 42 || got.Parent != 9 || got.ParentProc != "agent-3" {
		t.Fatalf("tagged event = %+v", got)
	}
	if got := evs[1]; got.Span != 0 || got.Trace != 0 || got.Parent != 0 || got.ParentProc != "" {
		t.Fatalf("untagged event carries trace fields: %+v", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = b.StartSpan(remote) }); allocs != 0 {
		t.Fatalf("StartSpan allocated %.2f times, want 0", allocs)
	}
}

func TestLogfFormatsOnlyWhenEnabled(t *testing.T) {
	b := &Bus{}
	b.Logf(0, false, "dropped")
	r := NewRing(4)
	b.Attach(r)
	b.Logf(time.Second, true, "hello %d", 7)
	evs := r.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	if evs[0].Kind != KindLog || evs[0].Detail != "hello 7" || !evs[0].Wall || evs[0].T != time.Second {
		t.Fatalf("unexpected log event %+v", evs[0])
	}
}

func TestRingWrap(t *testing.T) {
	r := NewRing(3)
	dropped := NewRegistry().Counter("obs.ring_dropped_events")
	r.CountDropsIn(dropped)
	for i := 0; i < 5; i++ {
		ev := NewEvent(KindLog, time.Duration(i))
		ev.Count = int32(i)
		r.Event(ev)
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("ring holds %d, want 3", len(evs))
	}
	for i, want := range []int32{2, 3, 4} {
		if evs[i].Count != want {
			t.Fatalf("ring[%d].Count = %d, want %d", i, evs[i].Count, want)
		}
	}
	if got := dropped.Value(); got != 2 {
		t.Fatalf("dropped = %d, want the 2 evicted events", got)
	}
}

func TestEventString(t *testing.T) {
	ev := NewEvent(KindRecoveryComplete, 730*time.Microsecond)
	ev.Span = 3
	ev.Switch = 12
	ev.Backup = 15
	ev.Detail = "node"
	ev.Detection, ev.Report, ev.Reconfig = 500*time.Microsecond, 200*time.Microsecond, 30*time.Microsecond
	ev.Total = ev.Detection + ev.Report + ev.Reconfig
	s := ev.String()
	for _, want := range []string{"recovery-complete", "span=3", "switch=12", "backup=15", "total=730µs", "node"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
}

// The emit path must stay allocation-free both when tracing is off (the cost
// every guarded emit site pays in production) and with a ring attached while
// the bus meters its own dispatch, and the self-meter must count exactly the
// events delivered to a sink.
func TestEmitZeroAlloc(t *testing.T) {
	b := &Bus{}
	emit := func() {
		if b.Enabled() {
			ev := NewEvent(KindRecoveryComplete, time.Millisecond)
			ev.Total = time.Millisecond
			b.Emit(ev)
		}
	}
	if allocs := testing.AllocsPerRun(1000, emit); allocs != 0 {
		t.Fatalf("no-sink emit allocated %.2f times per event, want 0", allocs)
	}

	reg := NewRegistry()
	b.MeterOverhead(reg)
	b.Attach(NewRing(64))
	const runs = 1000
	if allocs := testing.AllocsPerRun(runs, emit); allocs != 0 {
		t.Fatalf("ring-sink emit allocated %.2f times per event, want 0", allocs)
	}
	// AllocsPerRun calls emit once to warm up before the measured runs; the
	// no-sink phase above is never metered.
	if got := reg.Counter("obs.emit_events").Value(); got != runs+1 {
		t.Fatalf("self-meter counted %d events, emitted %d", got, runs+1)
	}
}
