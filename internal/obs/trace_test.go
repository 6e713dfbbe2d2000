package obs

import (
	"os"
	"strings"
	"testing"
	"time"
)

func mustOpenFile(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestReadJSONLTruncatedTail(t *testing.T) {
	var sb strings.Builder
	sink := NewJSONLSink(&sb)
	for i := 0; i < 3; i++ {
		ev := NewEvent(KindLog, time.Duration(i))
		ev.Detail = "line"
		sink.Event(ev)
	}
	full := sb.String()

	// A producer killed mid-write leaves an unterminated, unparseable tail:
	// the intact prefix must still be readable.
	cut := full[:len(full)-7]
	evs, err := ReadJSONL(strings.NewReader(cut))
	if err != nil {
		t.Fatalf("truncated tail not tolerated: %v", err)
	}
	if len(evs) != 2 {
		t.Fatalf("read %d events from truncated stream, want 2", len(evs))
	}

	// Corruption on a newline-TERMINATED line is not crash truncation and
	// must still error.
	lines := strings.SplitAfter(full, "\n")
	corrupt := lines[0] + "{bad json}\n" + lines[2]
	if _, err := ReadJSONL(strings.NewReader(corrupt)); err == nil {
		t.Fatal("corrupt terminated line accepted")
	}

	// An empty trailing newline (clean shutdown) reads everything.
	evs, err = ReadJSONL(strings.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("read %d events, want 3", len(evs))
	}
}

func completeEvent(trace, span uint64, total time.Duration) Event {
	ev := NewEvent(KindRecoveryComplete, 0)
	ev.Trace = trace
	ev.Span = span
	ev.Total = total
	return ev
}

func TestSLOWatchdog(t *testing.T) {
	reg := NewRegistry()
	var breached []Event
	w := NewSLOWatchdog(SLOConfig{
		Budget:   10 * time.Millisecond,
		Window:   4,
		Registry: reg,
		OnBreach: func(ev Event) { breached = append(breached, ev) },
	})

	w.Event(completeEvent(1, 1, 5*time.Millisecond))  // ok
	w.Event(completeEvent(1, 1, 99*time.Millisecond)) // wall mirror of the same recovery: ignored
	w.Event(completeEvent(2, 2, 20*time.Millisecond)) // breach
	w.Event(completeEvent(2, 2, 20*time.Millisecond)) // mirror again
	w.Event(NewEvent(KindLog, 0))                     // unrelated kinds ignored

	if got := reg.Counter("slo.recoveries").Value(); got != 2 {
		t.Errorf("recoveries = %d, want 2", got)
	}
	if got := reg.Counter("slo.breaches").Value(); got != 1 {
		t.Errorf("breaches = %d, want 1", got)
	}
	if got := reg.Gauge("slo.burn_rate_ppm").Value(); got != 5e5 {
		t.Errorf("burn rate = %d ppm, want 5e5", got)
	}
	if len(breached) != 1 || breached[0].Trace != 2 {
		t.Errorf("OnBreach calls = %+v, want one for trace 2", breached)
	}
	if got := reg.Gauge("slo.budget_ns").Value(); got != int64(10*time.Millisecond) {
		t.Errorf("slo.budget_ns = %d", got)
	}
	if got := reg.Histogram("slo.recovery_total_ns").Count(); got != 2 {
		t.Errorf("slo.recovery_total_ns count = %d, want 2", got)
	}

	// Untraced events (trace 0) never dedup against each other.
	w.Event(completeEvent(0, 0, time.Millisecond))
	w.Event(completeEvent(0, 0, time.Millisecond))
	if got := reg.Counter("slo.recoveries").Value(); got != 4 {
		t.Errorf("recoveries after untraced pair = %d, want 4", got)
	}
}

func TestFlightRecorderTriggerWritesBundle(t *testing.T) {
	reg := NewRegistry()
	bus := &Bus{}
	bus.SetProc("test-proc")
	fr := NewFlightRecorder(FlightConfig{
		Dir:       t.TempDir(),
		SLOBudget: time.Millisecond,
		Registry:  reg,
	})
	fr.Attach(bus)
	defer fr.Close()

	for i := 0; i < 10; i++ {
		bus.Emit(NewEvent(KindLog, time.Duration(i)))
	}
	bus.Emit(completeEvent(7, 7, 5*time.Millisecond)) // over budget

	// Bundles are written off the emitting goroutine.
	for deadline := time.Now().Add(5 * time.Second); len(fr.Dumps()) == 0 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
	if len(fr.Dumps()) == 0 {
		t.Fatal("no bundle written")
	}
	bundle := fr.Dumps()[0]
	if !strings.Contains(bundle, "slo-breach") {
		t.Errorf("bundle %s not named for trigger", bundle)
	}
	evs, err := ReadJSONL(mustOpenFile(t, bundle+"/events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 11 {
		t.Errorf("bundle holds %d events, want 11", len(evs))
	}
	if got := reg.Counter("flight.dumps").Value(); got != 1 {
		t.Errorf("flight.dumps = %d, want 1", got)
	}

	// A second breach inside the cooldown writes no bundle and is counted
	// as a suppressed trigger. The dump goroutine handles it asynchronously,
	// so wait for the counter rather than for a fixed time.
	bus.Emit(completeEvent(8, 8, 5*time.Millisecond))
	suppressed := reg.Counter("flight.trigger_errors")
	for deadline := time.Now().Add(5 * time.Second); suppressed.Value() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := suppressed.Value(); got != 1 {
		t.Errorf("flight.trigger_errors = %d after a trigger inside the cooldown, want 1", got)
	}
	if got := len(fr.Dumps()); got != 1 {
		t.Errorf("cooldown violated: %d bundles", got)
	}
	if got := reg.Counter("flight.dumps").Value(); got != 1 {
		t.Errorf("flight.dumps = %d after the suppressed trigger, want 1", got)
	}
}

func TestPromText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("slo.breaches").Add(3)
	reg.Gauge("ctlnet.connections").Set(7)
	h := reg.Histogram("recovery.total_ns")
	h.Record(100)
	h.Record(200)
	text := reg.PromText()
	for _, want := range []string{
		"# TYPE slo_breaches counter\nslo_breaches 3\n",
		"# TYPE ctlnet_connections gauge\nctlnet_connections 7\n",
		"# TYPE recovery_total_ns summary\n",
		"recovery_total_ns{quantile=\"0.5\"}",
		"recovery_total_ns_sum 300\n",
		"recovery_total_ns_count 2\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("PromText missing %q:\n%s", want, text)
		}
	}
}
