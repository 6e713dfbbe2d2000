package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	b := &Bus{}
	b.Attach(sink)

	want := NewEvent(KindRecoveryComplete, 730*time.Microsecond)
	want.Span = 9
	want.Switch = 4
	want.Backup = 7
	want.Port = 2
	want.Detail = "node"
	want.Count = 8
	want.Wall = true
	want.Detection = 500 * time.Microsecond
	want.Report = 200 * time.Microsecond
	want.Reconfig = 30 * time.Microsecond
	want.Total = 730 * time.Microsecond
	b.Emit(want)
	b.Emit(NewEvent(KindFailureDeclared, time.Millisecond))
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	evs, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("decoded %d events, want 2", len(evs))
	}
	got := evs[0]
	want.Seq = got.Seq // assigned by the bus
	if got != want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if evs[1].Kind != KindFailureDeclared || evs[1].Switch != None {
		t.Fatalf("second event decoded as %+v", evs[1])
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"kind":"no-such-kind","t_ns":0}` + "\n")); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
}

func TestLogfSinkRenders(t *testing.T) {
	var lines []string
	sink := NewLogfSink(func(format string, args ...interface{}) {
		lines = append(lines, sprintf(format, args...))
	})
	ev := NewEvent(KindBackupAssigned, time.Millisecond)
	ev.Switch = 3
	ev.Backup = 5
	sink.Event(ev)
	if len(lines) != 1 || !strings.Contains(lines[0], "backup-assigned") || !strings.Contains(lines[0], "backup=5") {
		t.Fatalf("logf sink rendered %q", lines)
	}
}

func TestNilRegistryHandles(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	if r.PromText() != "" {
		t.Fatal("nil registry exposition not empty")
	}
	var c *Counter
	c.Inc()
	c.Add(2)
	if c.Value() != 0 {
		t.Fatal("nil counter has value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has value")
	}
}
