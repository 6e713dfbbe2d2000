package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"sharebackup/internal/bench"
)

// runGate invokes the CLI entry point with a laptop-scale configuration.
func runGate(t *testing.T, dir string, extra ...string) (int, string) {
	t.Helper()
	args := append([]string{
		"-recovery", filepath.Join(dir, "BENCH_recovery.json"),
		"-dataplane", filepath.Join(dir, "BENCH_dataplane.json"),
		"-sweep", filepath.Join(dir, "BENCH_sweep.json"),
		"-routing", filepath.Join(dir, "BENCH_routing.json"),
		"-obs", filepath.Join(dir, "BENCH_obs.json"),
		// Every gate gets an explicit temp path: an omitted flag would fall
		// back to the repo-root default and rewrite a committed baseline
		// from a smoke-scale test run.
		"-ctlplane", filepath.Join(dir, "BENCH_ctlplane.json"),
		"-k", "4", "-trials", "2", "-smoke",
	}, extra...)
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String() + errb.String()
}

func TestTrajectoryGate(t *testing.T) {
	dir := t.TempDir()

	// First run: no baseline, must pass and write both files.
	code, out := runGate(t, dir)
	if code != 0 {
		t.Fatalf("first run exit=%d:\n%s", code, out)
	}
	recPath := filepath.Join(dir, "BENCH_recovery.json")
	rec, err := bench.Read(recPath)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Meta.TimestampUTC == "" || rec.Meta.GoVersion == "" {
		t.Fatalf("BENCH file not stamped: %+v", rec.Meta)
	}
	if len(rec.Metrics) == 0 || len(rec.Detail) == 0 {
		t.Fatalf("BENCH file missing metrics/detail: %+v", rec)
	}
	if _, err := bench.Read(filepath.Join(dir, "BENCH_dataplane.json")); err != nil {
		t.Fatal(err)
	}
	sw, err := bench.Read(filepath.Join(dir, "BENCH_sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sw.Metrics["sweep.deterministic"].Value; got != 1 {
		t.Fatalf("sweep.deterministic = %v, want 1", got)
	}
	rt, err := bench.Read(filepath.Join(dir, "BENCH_routing.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Metrics["routing.pathfor_allocs_op"].Value; got != 0 {
		t.Fatalf("routing.pathfor_allocs_op = %v, want 0", got)
	}
	if got := rt.Metrics["routing.speedup_vs_fresh"].Value; got < 1 {
		t.Fatalf("routing.speedup_vs_fresh = %v, want >= 1", got)
	}
	ob, err := bench.Read(filepath.Join(dir, "BENCH_obs.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"obs.emit_nosink_ns_op", "obs.emit_nosink_allocs_op",
		"obs.emit_ring_ns_event", "obs.emit_ring_allocs_event",
		"obs.jsonl_bytes_event", "obs.tsdb_sample_ns_op",
		"obs.export_ns_op", "obs.promtext_ns_op",
	} {
		if _, ok := ob.Metrics[name]; !ok {
			t.Fatalf("BENCH_obs.json missing %s: have %v", name, ob.Metrics)
		}
	}
	if got := ob.Metrics["obs.emit_nosink_allocs_op"].Value; got != 0 {
		t.Fatalf("obs.emit_nosink_allocs_op = %v, want 0", got)
	}

	// Second run against its own output: recovery latencies are
	// deterministic (virtual time), so the gate stays green. Only that leg
	// runs from here on — comparing two smoke-scale wall-clock runs of the
	// other legs against each other measures the host, not the gate.
	recoveryOnly := []string{"-no-write", "-dataplane", "", "-sweep", "", "-routing", "", "-obs", "", "-ctlplane", ""}
	code, out = runGate(t, dir, recoveryOnly...)
	if code != 0 {
		t.Fatalf("steady-state run exit=%d:\n%s", code, out)
	}

	// Inject a regression: pretend the baseline was twice as fast as what
	// the benchmark will measure. The gate must exit 1.
	for name, m := range rec.Metrics {
		m.Value /= 2
		rec.Metrics[name] = m
	}
	if err := bench.Write(recPath, rec); err != nil {
		t.Fatal(err)
	}
	code, out = runGate(t, dir, recoveryOnly...)
	if code != 1 {
		t.Fatalf("injected regression exit=%d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") {
		t.Fatalf("regression not reported:\n%s", out)
	}
}

func TestBenchFailureExitsTwo(t *testing.T) {
	dir := t.TempDir()
	// k must be even and >= 4; k=3 makes the harness fail.
	var out, errb bytes.Buffer
	code := run([]string{
		"-recovery", filepath.Join(dir, "r.json"),
		"-dataplane", "",
		"-sweep", "",
		"-k", "3", "-trials", "1",
	}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit=%d, want 2\n%s%s", code, out.String(), errb.String())
	}
}
