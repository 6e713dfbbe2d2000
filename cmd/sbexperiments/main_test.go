package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sharebackup"
)

// Figure 1(a) prints exactly what the library computes at its own defaults
// (3 samples per rate); -trials, which sizes the recovery study only, is
// refused beside it (TestBadRunListRunsNothing).
func TestFig1aKeepsLibraryDefaults(t *testing.T) {
	res, err := sharebackup.Fig1a(sharebackup.Fig1Config{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	want.WriteString("===== fig1a =====\n")
	if err := printFig1(&want, true, 4, res); err != nil {
		t.Fatal(err)
	}
	want.WriteString("\n")
	args := []string{"-run", "fig1a", "-k", "4"}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
	}
	if stdout.String() != want.String() {
		t.Errorf("%v printed\n%s\nwant\n%s", args, stdout.String(), want.String())
	}
}

// A bad experiment list, a flag set without an experiment that reads it
// (-json and -trials without recovery, -coflow-trace without fig1a or fig1b,
// -k with fig5 alone, -n with table3 or latency), or a value that fails its
// library's field checks (-trials 0, -n -1 for montecarlo or for capacity
// after fig5, an odd -k) is refused before any trace loads or experiment
// runs.
func TestBadRunListRunsNothing(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(trace, []byte("4 2\n1 0 1 0 1 1:10\n2 5 1 1 1 2:20\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		says string
	}{
		{[]string{"-run", "latency,nosuch"}, `"nosuch"`},
		{[]string{"-run", "latency", "-json", "r.json"}, "add recovery to -run"},
		{[]string{"-run", "fig1a", "-k", "4", "-trials", "32"}, "add recovery to -run"},
		{[]string{"-run", "fig1c", "-k", "4", "-coflow-trace", trace}, "add fig1a or fig1b to -run"},
		{[]string{"-run", "fig5", "-k", "7"}, "reads -k"},
		{[]string{"-run", "table3", "-n", "-2"}, "reads -n"},
		{[]string{"-run", "latency", "-n", "-1"}, "reads -n"},
		{[]string{"-run", "latency,recovery", "-trials", "0", "-k", "4"}, "Trials"},
		{[]string{"-run", "latency,montecarlo", "-n", "-1", "-k", "4"}, "Backups"},
		{[]string{"-run", "fig5,capacity", "-n", "-1", "-k", "4"}, "n=-1"},
		{[]string{"-run", "tablesize,fig1c", "-k", "3"}, "k=3"},
		{[]string{"-run", "fig5,latency", "-k", "64"}, "port limit"},
		{[]string{"-run", "fig5,recovery", "-k", "64"}, "port limit"},
		{[]string{"-run", "fig5,recovery", "-k", "4", "-n", "40"}, "port limit"},
		{[]string{"-run", "fig5,transient", "-k", "64"}, "port limit"},
		{[]string{"-run", "fig5,recovery", "-k", "4", "-json", "/nonexistent/dir/x.json"}, "-json"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v ran experiments before refusing:\n%s", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.says) {
			t.Errorf("%v: stderr %q does not say %q", tc.args, stderr.String(), tc.says)
		}
	}
}
