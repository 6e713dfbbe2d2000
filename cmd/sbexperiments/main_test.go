package main

import (
	"bytes"
	"strings"
	"testing"

	"sharebackup"
)

// -trials sizes the recovery study only: Figure 1(a) prints exactly what
// the library computes at its own defaults (3 samples per rate), whatever
// -trials says.
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
	for _, args := range [][]string{
		{"-run", "fig1a", "-k", "4"},
		{"-run", "fig1a", "-k", "4", "-trials", "32"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		if stdout.String() != want.String() {
			t.Errorf("%v printed\n%s\nwant\n%s", args, stdout.String(), want.String())
		}
	}
}

// A bad experiment list, or -json without the recovery study it writes,
// is refused before any experiment runs.
func TestBadRunListRunsNothing(t *testing.T) {
	for _, tc := range []struct {
		args []string
		says string
	}{
		{[]string{"-run", "latency,nosuch"}, `"nosuch"`},
		{[]string{"-run", "latency", "-json", "r.json"}, "add recovery to -run"},
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
