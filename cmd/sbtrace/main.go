// Command sbtrace generates, inspects, and converts coflow traces in the
// coflow-benchmark format the paper's failure study replays.
//
// Usage:
//
//	sbtrace -gen -racks 150 -coflows 526 -duration 3600 -seed 1 > trace.txt
//	sbtrace -inspect trace.txt
//	sbtrace -inspect trace.txt -window 300
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sharebackup/internal/coflow"
	"sharebackup/internal/metrics"
)

func main() {
	var (
		gen      = flag.Bool("gen", false, "generate a synthetic trace to stdout")
		racks    = flag.Int("racks", 150, "rack count (generation)")
		coflows  = flag.Int("coflows", 526, "coflow count (generation)")
		duration = flag.Float64("duration", 3600, "arrival horizon in seconds (generation)")
		seed     = flag.Int64("seed", 1, "generation seed")
		inspect  = flag.String("inspect", "", "trace file to summarize")
		window   = flag.Float64("window", 0, "also report per-window counts at this window size (seconds)")
	)
	flag.Parse()

	switch {
	case *gen:
		tr, err := coflow.Generate(coflow.GenConfig{
			Racks: *racks, NumCoflows: *coflows, Duration: *duration, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		if err := tr.Format(os.Stdout); err != nil {
			fatal(err)
		}
	case *inspect != "":
		f, err := os.Open(*inspect)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tr, err := coflow.Parse(f)
		if err != nil {
			fatal(err)
		}
		if err := summarize(os.Stdout, tr, *window); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// summarize writes the trace's totals and width and byte quantiles to w,
// then, for any nonzero window, its per-window counts. Partition refuses a
// negative or NaN window, so such a window is an error, not a missing table.
func summarize(w io.Writer, tr *coflow.Trace, window float64) error {
	var parts []*coflow.Trace
	if window != 0 {
		var err error
		if parts, err = tr.Partition(window); err != nil {
			return err
		}
	}
	widths := make([]float64, len(tr.Coflows))
	bytes := make([]float64, len(tr.Coflows))
	for i := range tr.Coflows {
		widths[i] = float64(tr.Coflows[i].Width())
		bytes[i] = tr.Coflows[i].TotalBytes()
	}
	ws, bs := metrics.Summarize(widths), metrics.Summarize(bytes)
	fmt.Fprintf(w, "racks: %d\ncoflows: %d\ndropped: %d (no cross-rack flow)\nflows: %d\nduration: %.1fs\n",
		tr.NumRacks, len(tr.Coflows), tr.Dropped, tr.TotalFlows(), tr.Duration())
	fmt.Fprintf(w, "width:  median %.0f  p90 %.0f  p99 %.0f  max %.0f\n", ws.Median, ws.P90, ws.P99, ws.Max)
	fmt.Fprintf(w, "bytes:  median %.3g  p90 %.3g  p99 %.3g  max %.3g\n", bs.Median, bs.P90, bs.P99, bs.Max)
	if parts == nil {
		return nil
	}
	tbl := &metrics.Table{
		Title:   fmt.Sprintf("per-%gs-window coflow counts", window),
		Headers: []string{"window", "coflows", "flows"},
	}
	for i, p := range parts {
		tbl.AddRow(i, len(p.Coflows), p.TotalFlows())
	}
	_, err := fmt.Fprint(w, tbl.String())
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sbtrace:", err)
	os.Exit(1)
}
