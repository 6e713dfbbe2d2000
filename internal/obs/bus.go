package obs

import (
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Bus fans events out to attached sinks. All methods are safe for concurrent
// use and safe on a nil *Bus (no-ops), so components can hold an optional
// bus without guards.
//
// Sink delivery is serialized: Emit holds one mutex while invoking sinks, so
// a sink never sees two events concurrently and events from concurrent
// emitters arrive in a single total order (their Seq numbers). With no sink
// attached, Emit is one atomic load and a branch — callers should still
// guard event *construction* with Enabled() so the no-sink path allocates
// nothing.
type Bus struct {
	sinks atomic.Pointer[[]Sink]
	mu    sync.Mutex // serializes sink delivery and sink-list mutation

	// emitted, when set via MeterOverhead, counts the events the bus
	// delivered to its sinks.
	emitted atomic.Pointer[Counter]

	seq   uint64        // event sequence numbers; guarded by mu
	spans atomic.Uint64 // span ID allocator

	// proc names this bus' process for stitched multi-process traces;
	// stamped onto every emitted event that doesn't carry one already.
	proc atomic.Pointer[string]
}

// TraceContext identifies a position in a cross-process trace: the trace ID
// and the span (qualified by its owning process) that new work descends
// from. It is what the ctlnet wire frames carry.
type TraceContext struct {
	Trace uint64
	Span  uint64
	Proc  string
}

// SpanRef is an open span as a value. Its owner starts it (Bus.StartSpan),
// tags the span's events with it and passes it on: to the records of the
// work it covers, or to another process as Context on the wire. The bus
// keeps no span state, so any number of spans can be open on one bus.
type SpanRef struct {
	ID    uint64 // numbered by the bus' counter
	Trace uint64
	// Parent and ParentProc name the span this one descends from (0 and ""
	// for a trace root); Proc is the owning bus' process name.
	Parent           uint64
	ParentProc, Proc string
}

// StartSpan opens a span as a child of parent, or as the root of a fresh
// trace when parent carries no trace. A nil bus returns the zero SpanRef,
// which tags nothing.
func (b *Bus) StartSpan(parent TraceContext) SpanRef {
	if b == nil {
		return SpanRef{}
	}
	s := SpanRef{ID: b.spans.Add(1), Trace: parent.Trace, Proc: b.Proc()}
	if s.Trace == 0 {
		s.Trace = NewTraceID()
	} else {
		s.Parent, s.ParentProc = parent.Span, parent.Proc
	}
	return s
}

// Tag stamps ev with the span: its ID, its trace and its parent.
func (s SpanRef) Tag(ev *Event) {
	ev.Span, ev.Trace, ev.Parent, ev.ParentProc = s.ID, s.Trace, s.Parent, s.ParentProc
}

// Context is what a request made inside the span carries on the wire: the
// span's trace, with the span itself as the parent.
func (s SpanRef) Context() TraceContext {
	return TraceContext{Trace: s.Trace, Span: s.ID, Proc: s.Proc}
}

// traceSeed randomizes trace IDs per process so traces originating in
// different processes never collide; overridable for deterministic tests.
var (
	traceSeed atomic.Uint64
	traceCtr  atomic.Uint64
)

func init() {
	traceSeed.Store(uint64(time.Now().UnixNano())*0x9e3779b97f4a7c15 ^ uint64(os.Getpid())<<32)
}

// NewTraceID allocates a process-unique, cross-process-collision-resistant
// trace ID (never 0).
func NewTraceID() uint64 {
	id := traceSeed.Load() ^ traceCtr.Add(1)*0x9e3779b97f4a7c15
	if id == 0 {
		id = 1
	}
	return id
}

// Default is the process-wide bus. sharebackup.New wires it into every
// System it builds, so attaching a sink here (e.g. via the -trace flag of
// the commands) observes all control planes without plumbing.
var Default = &Bus{}

// Enabled reports whether any sink is attached. Emit sites use it to skip
// event construction entirely on the no-sink path.
func (b *Bus) Enabled() bool {
	if b == nil {
		return false
	}
	s := b.sinks.Load()
	return s != nil && len(*s) > 0
}

// Emit delivers the event to every attached sink, stamping its Seq and the
// bus' process name. It is a no-op (and allocation-free) when no sink is
// attached.
func (b *Bus) Emit(ev Event) {
	if b == nil {
		return
	}
	s := b.sinks.Load()
	if s == nil || len(*s) == 0 {
		return
	}
	if ev.Proc == "" {
		if p := b.proc.Load(); p != nil {
			ev.Proc = *p
		}
	}
	b.mu.Lock()
	// Seq is drawn under the lock that orders delivery, so concurrent
	// emitters reach every sink in sequence order.
	b.seq++
	ev.Seq = b.seq
	// Reload under the lock: Detach may have run since the fast-path check.
	if s := b.sinks.Load(); s != nil {
		for _, sink := range *s {
			sink.Event(ev)
		}
	}
	b.mu.Unlock()
	b.emitted.Load().Inc()
}

// MeterOverhead starts counting the events the bus delivers to its sinks
// into reg's obs.emit_events. The no-sink fast path is never metered — it
// stays one atomic load. A nil reg stops metering.
func (b *Bus) MeterOverhead(reg *Registry) {
	if b == nil {
		return
	}
	if reg == nil {
		b.emitted.Store(nil)
		return
	}
	b.emitted.Store(reg.Counter("obs.emit_events"))
}

// Attach adds a sink. The same sink value can only be attached once; a
// second Attach of it is a no-op.
func (b *Bus) Attach(s Sink) {
	if b == nil || s == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var cur []Sink
	if p := b.sinks.Load(); p != nil {
		cur = *p
	}
	for _, have := range cur {
		if have == s {
			return
		}
	}
	next := make([]Sink, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = s
	b.sinks.Store(&next)
}

// Detach removes a previously attached sink.
func (b *Bus) Detach(s Sink) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.sinks.Load()
	if p == nil {
		return
	}
	next := make([]Sink, 0, len(*p))
	for _, have := range *p {
		if have != s {
			next = append(next, have)
		}
	}
	b.sinks.Store(&next)
}

// SetProc names this bus' process; every emitted event is stamped with it
// (unless the event already carries one). Call once at wire-up.
func (b *Bus) SetProc(name string) {
	if b != nil {
		b.proc.Store(&name)
	}
}

// Proc returns the process name set via SetProc ("" when unset).
func (b *Bus) Proc() string {
	if b == nil {
		return ""
	}
	if p := b.proc.Load(); p != nil {
		return *p
	}
	return ""
}

// Logf emits a KindLog event carrying the formatted line. It is the
// serialization point for ad-hoc diagnostics: concurrent callers are ordered
// by the bus' sink lock. Formatting is skipped when no sink is attached.
func (b *Bus) Logf(t time.Duration, wall bool, format string, args ...interface{}) {
	if !b.Enabled() {
		return
	}
	ev := NewEvent(KindLog, t)
	ev.Wall = wall
	ev.Detail = sprintf(format, args...)
	b.Emit(ev)
}
