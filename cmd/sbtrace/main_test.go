package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"sharebackup/internal/coflow"
)

// TestSummarizeWindow: a window of zero prints no per-window table, a
// positive one prints it, and a negative or NaN one is refused by name
// rather than silently printing nothing.
func TestSummarizeWindow(t *testing.T) {
	tr, err := coflow.Generate(coflow.GenConfig{Racks: 16, NumCoflows: 20, Duration: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := summarize(&out, tr, 0); err != nil || strings.Contains(out.String(), "window") {
		t.Errorf("window 0: err %v, output:\n%s\nwant no per-window table", err, out.String())
	}
	out.Reset()
	if err := summarize(&out, tr, 30); err != nil || !strings.Contains(out.String(), "per-30s-window coflow counts") {
		t.Errorf("window 30: err %v, output:\n%s\nwant the per-window table", err, out.String())
	}
	for _, w := range []float64{-5, math.NaN()} {
		out.Reset()
		if err := summarize(&out, tr, w); err == nil || !strings.Contains(err.Error(), fmt.Sprint(w)) {
			t.Errorf("window %v: err = %v, want one naming the window", w, err)
		}
	}
}
