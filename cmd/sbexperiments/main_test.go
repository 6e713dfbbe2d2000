package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sharebackup"
	"sharebackup/internal/coflow"
)

// Figure 1(a) prints exactly what the library computes at its own defaults
// (3 samples per rate), on the synthetic workload and on a -coflow-trace
// file; -trials, which sizes the recovery study only, is refused beside it
// (TestBadRunListRunsNothing).
func TestFig1aKeepsLibraryDefaults(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(trace, []byte(testTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	parsed, err := coflow.Parse(strings.NewReader(testTrace))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args  []string
		trace *coflow.Trace
	}{
		{[]string{"-run", "fig1a", "-k", "4"}, nil},
		{[]string{"-run", "fig1a", "-k", "4", "-coflow-trace", trace}, parsed},
	} {
		res, err := sharebackup.Fig1a(sharebackup.Fig1Config{K: 4, Seed: 1, Trace: tc.trace})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		want.WriteString("===== fig1a =====\n")
		if err := printFig1(&want, true, 4, res); err != nil {
			t.Fatal(err)
		}
		want.WriteString("\n")
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, code, stderr.String())
		}
		got := stdout.String()
		if tc.trace != nil {
			var line string
			if line, got, _ = strings.Cut(got, "\n"); !strings.HasPrefix(line, "loaded trace: ") {
				t.Errorf("%v printed %q, not a loaded trace: line", tc.args, line)
			}
		}
		if got != want.String() {
			t.Errorf("%v printed\n%s\nwant\n%s", tc.args, got, want.String())
		}
	}
}

// testTrace is a two-coflow coflow-benchmark trace on 4 racks.
const testTrace = "4 2\n1 0 1 0 1 1:10\n2 5 1 1 1 2:20\n"

// Table 2 prices a fabric and builds none, so the circuit-switch port limit
// does not bind it: sbexperiments prints the library's table.
func TestTable2PricesPastThePortLimit(t *testing.T) {
	tbl, err := sharebackup.Table2(4, 400)
	if err != nil {
		t.Fatal(err)
	}
	want := "===== table2 =====\n" + tbl.String() + "\n"
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "table2", "-k", "4", "-n", "400"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if stdout.String() != want {
		t.Errorf("printed\n%s\nwant\n%s", stdout.String(), want)
	}
}

// A bad experiment list, a flag set without an experiment that reads it, or
// a value that the selected experiment's library rejects — every experiment,
// for every flag it reads that has a bad value, with fig5 run first — is
// refused (exit 2) before any trace loads or experiment runs, naming the
// experiment and the value.
func TestBadRunListRunsNothing(t *testing.T) {
	dir := t.TempDir()
	trace, garbled := filepath.Join(dir, "trace.txt"), filepath.Join(dir, "garbled.txt")
	if err := os.WriteFile(trace, []byte(testTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(garbled, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.txt")
	for _, tc := range []struct {
		args []string
		says []string
	}{
		{[]string{"-run", "latency,nosuch"}, []string{`"nosuch"`}},
		{[]string{"-run", "latency", "-json", "r.json"}, []string{"-json", "add recovery to -run"}},
		{[]string{"-run", "fig1a", "-k", "4", "-trials", "32"}, []string{"-trials", "add recovery to -run"}},
		{[]string{"-run", "fig1c", "-k", "4", "-coflow-trace", trace}, []string{"-coflow-trace", "add fig1a or fig1b to -run"}},
		{[]string{"-run", "fig5", "-k", "7"}, []string{"reads -k"}},
		{[]string{"-run", "table3", "-n", "-2"}, []string{"reads -n"}},
		{[]string{"-run", "latency", "-n", "-1"}, []string{"reads -n"}},

		{[]string{"-run", "fig5,fig1a", "-k", "3"}, []string{"fig1a", "k=3"}},
		{[]string{"-run", "fig5,fig1a", "-k", "4", "-coflow-trace", missing}, []string{"fig1a", missing}},
		{[]string{"-run", "fig5,fig1b", "-k", "5"}, []string{"fig1b", "k=5"}},
		{[]string{"-run", "fig5,fig1b", "-k", "4", "-coflow-trace", garbled}, []string{"fig1b", garbled}},
		{[]string{"-run", "fig5,fig1c", "-k", "3"}, []string{"fig1c", "k=3"}},
		{[]string{"-run", "fig5,table2", "-k", "2"}, []string{"table2", "k=2"}},
		{[]string{"-run", "fig5,table2", "-n", "-1"}, []string{"table2", "n=-1"}},
		{[]string{"-run", "fig5,table3", "-k", "3"}, []string{"table3", "k=3"}},
		{[]string{"-run", "fig5,capacity", "-k", "3"}, []string{"capacity", "k=3"}},
		{[]string{"-run", "fig5,capacity", "-n", "-1", "-k", "4"}, []string{"capacity", "n=-1"}},
		{[]string{"-run", "fig5,capacity", "-n", "300", "-k", "4"}, []string{"capacity", "n=300", "port limit"}},
		{[]string{"-run", "fig5,latency", "-k", "3"}, []string{"latency", "k=3"}},
		{[]string{"-run", "fig5,latency", "-k", "64"}, []string{"latency", "k=64", "port limit"}},
		{[]string{"-run", "fig5,extensions", "-k", "7"}, []string{"extensions", "k=7"}},
		{[]string{"-run", "fig5,transient", "-k", "3"}, []string{"transient", "k=3"}},
		{[]string{"-run", "fig5,transient", "-k", "64"}, []string{"transient", "k=64", "port limit"}},
		{[]string{"-run", "fig5,montecarlo", "-k", "3"}, []string{"montecarlo", "k=3"}},
		{[]string{"-run", "fig5,montecarlo", "-k", "2"}, []string{"montecarlo", "k=2"}},
		{[]string{"-run", "fig5,montecarlo", "-n", "-1", "-k", "4"}, []string{"montecarlo", "Backups=-1"}},
		{[]string{"-run", "fig5,recovery", "-k", "3"}, []string{"recovery", "k=3"}},
		{[]string{"-run", "fig5,recovery", "-k", "64"}, []string{"recovery", "k=64", "port limit"}},
		{[]string{"-run", "fig5,recovery", "-k", "4", "-n", "-1"}, []string{"recovery", "n=-1"}},
		{[]string{"-run", "fig5,recovery", "-k", "4", "-n", "40"}, []string{"recovery", "n=40", "port limit"}},
		{[]string{"-run", "fig5,recovery", "-k", "4", "-trials", "0"}, []string{"recovery", "Trials is 0"}},
		{[]string{"-run", "fig5,recovery", "-k", "4", "-json", "/nonexistent/dir/x.json"}, []string{"recovery", "/nonexistent/dir/x.json"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v ran experiments before refusing:\n%s", tc.args, stdout.String())
		}
		for _, says := range tc.says {
			if !strings.Contains(stderr.String(), says) {
				t.Errorf("%v: stderr %q does not say %q", tc.args, stderr.String(), says)
			}
		}
	}
}
