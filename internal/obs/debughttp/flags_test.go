package debughttp

import (
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sharebackup"
	"sharebackup/internal/obs"
)

// TestSharedFlagsWiring drives the one implementation behind the obs flags
// of sbexperiments and sbemu the way a main does: register on a flag
// set, parse, Start, run a recovery on the process-wide bus, clean up.
func TestSharedFlagsWiring(t *testing.T) {
	if obs.Default.Enabled() {
		t.Fatal("process-wide bus already has sinks")
	}
	breaches0 := obs.DefaultRegistry.Counter("slo.breaches").Value()

	fs := flag.NewFlagSet("sbtest", flag.ContinueOnError)
	f := RegisterFlags(fs)
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	err := fs.Parse([]string{"-debug-addr", "127.0.0.1:0", "-slo-budget", "1ns", "-trace", tracePath})
	if err != nil {
		t.Fatal(err)
	}
	traceSink, cleanup, err := f.Start("sbtest", obs.Default)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup() //nolint:errcheck // second call on the failure paths only
	if traceSink == nil {
		t.Error("no trace sink returned for the trace flag")
	}
	base := "http://" + f.server.Addr()

	sys, err := sharebackup.New(sharebackup.Config{K: 4, N: 1, Metrics: obs.DefaultRegistry})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.FailNode(sys.Network.EdgeGroup(0).Slots()[0], time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Any recovery breaches a 1 ns budget.
	_, body := get(t, base+"/varz")
	var ex obs.Export
	if err := json.Unmarshal([]byte(body), &ex); err != nil {
		t.Fatalf("/varz: %v", err)
	}
	if got := ex.Counters["slo.breaches"] - breaches0; got != 1 {
		t.Errorf("/varz slo.breaches rose by %d, want 1", got)
	}
	if ex.Counters["obs.emit_events"] == 0 {
		t.Error("/varz obs.emit_events = 0: bus self-metering not started")
	}

	if err := cleanup(); err != nil {
		t.Fatalf("cleanup: %v", err)
	}
	if obs.Default.Enabled() {
		t.Error("cleanup left a sink attached to the process-wide bus")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("debug server still reachable after cleanup")
	}
	tf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	evs, err := obs.ReadJSONL(tf)
	if err != nil {
		t.Fatal(err)
	}
	complete := 0
	for _, ev := range evs {
		if ev.Kind == obs.KindRecoveryComplete {
			complete++
		}
	}
	if complete != 1 {
		t.Errorf("trace file holds %d recovery-complete events, want 1", complete)
	}
}
