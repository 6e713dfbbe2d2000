package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden from this run")

const goldenPath = "testdata/experiments.golden"

// TestExperimentsGolden pins `sbexperiments -run all` (the default set at its
// default flags) byte for byte, one `===== name =====` section at a time.
// Every experiment is deterministic for any worker count, so a differing
// section is a changed result, not noise. The golden was recorded on amd64,
// CI's architecture: other architectures may round floating point
// differently. Rewrite it with `go test ./cmd/sbexperiments -run
// TestExperimentsGolden -update` only when a result is meant to change.
func TestExperimentsGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if *update {
		if err := os.WriteFile(filepath.FromSlash(goldenPath), stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	got, exp := sections(stdout.String()), sections(string(want))
	for name, w := range exp {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("section %s missing from the output", name)
		case g != w:
			t.Errorf("section %s differs:\n--- got\n%s--- want\n%s", name, g, w)
		}
	}
	for name := range got {
		if _, ok := exp[name]; !ok {
			t.Errorf("section %s is not in %s", name, goldenPath)
		}
	}
}

// sections splits the output at its `===== name =====` headers.
func sections(out string) map[string]string {
	secs := make(map[string]string)
	name := ""
	for _, line := range strings.SplitAfter(out, "\n") {
		if h, ok := strings.CutPrefix(line, "===== "); ok {
			name = strings.TrimSuffix(h, " =====\n")
		}
		secs[name] += line
	}
	return secs
}
