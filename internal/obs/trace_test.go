package obs

import (
	"strings"
	"testing"
	"time"
)

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
	const budget = 10 * time.Millisecond
	for _, tc := range []struct {
		name       string
		events     []Event
		recoveries int64
		breaches   int64
		burnPPM    int64
	}{{
		name: "every event is one recovery",
		events: []Event{
			completeEvent(1, 1, 5*time.Millisecond),
			completeEvent(2, 2, 20*time.Millisecond), // breach
			completeEvent(3, 1, 5*time.Millisecond),
			NewEvent(KindLog, 0), // unrelated kinds ignored
		},
		recoveries: 3, breaches: 1, burnPPM: 333333,
	}, {
		name: "untraced events never dedup",
		events: []Event{
			completeEvent(0, 0, time.Millisecond),
			completeEvent(0, 0, time.Millisecond),
		},
		recoveries: 2, breaches: 0, burnPPM: 0,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			w := NewSLOWatchdog(SLOConfig{Budget: budget, Registry: reg})
			for _, ev := range tc.events {
				w.Event(ev)
			}
			if got := reg.Counter("slo.recoveries").Value(); got != tc.recoveries {
				t.Errorf("slo.recoveries = %d, want %d", got, tc.recoveries)
			}
			if got := reg.Counter("slo.breaches").Value(); got != tc.breaches {
				t.Errorf("slo.breaches = %d, want %d", got, tc.breaches)
			}
			if got := reg.Gauge("slo.burn_rate_ppm").Value(); got != tc.burnPPM {
				t.Errorf("slo.burn_rate_ppm = %d, want %d", got, tc.burnPPM)
			}
			if got := reg.Histogram("slo.recovery_total_ns").Count(); got != tc.recoveries {
				t.Errorf("slo.recovery_total_ns count = %d, want %d", got, tc.recoveries)
			}
			if got := reg.Gauge("slo.budget_ns").Value(); got != int64(budget) {
				t.Errorf("slo.budget_ns = %d", got)
			}
		})
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
