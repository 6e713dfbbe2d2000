// Command sbsim runs the paper's failure study (Section 2.2) with full
// control over the workload: the Figure 1(a)/(b) affected-percentage sweeps
// and the Figure 1(c) CCT-slowdown study, on either a synthetic coflow trace
// or a real coflow-benchmark file.
//
// Usage:
//
//	sbsim -study affected -kind node -k 16 -rates 0.01,0.05,0.1
//	sbsim -study affected -kind link -trace FB2010-1Hr-150-0.txt
//	sbsim -study cct -k 8 -coflows 40 -scenarios 16
//
// -trace-out FILE writes structured control-plane events as JSONL (summarize
// with sbtap; -trace is the coflow trace input, hence the longer name here);
// -events logs them human-readably to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sharebackup"
	"sharebackup/internal/coflow"
	"sharebackup/internal/fluid"
	"sharebackup/internal/metrics"
	"sharebackup/internal/obs"
	"sharebackup/internal/obs/debughttp"
)

func main() {
	var (
		study     = flag.String("study", "affected", "study to run: affected (Fig 1a/b) or cct (Fig 1c)")
		kind      = flag.String("kind", "node", "failure kind for the affected study: node or link")
		k         = flag.Int("k", 16, "fat-tree parameter")
		seed      = flag.Int64("seed", 1, "deterministic seed")
		ratesStr  = flag.String("rates", "", "comma-separated failure rates (default experiment sweep)")
		trials    = flag.Int("trials", 3, "failure samples per rate")
		tracePath = flag.String("trace", "", "coflow-benchmark trace file (default: synthetic trace)")
		coflows   = flag.Int("coflows", 30, "coflows per window (cct study)")
		scenarios = flag.Int("scenarios", 12, "single-failure scenarios (cct study)")
		window    = flag.Float64("window", 300, "trace window seconds (cct study)")
		windows   = flag.Int("windows", 1, "number of trace windows; scenarios spread round-robin (cct study)")
	)
	obsFlags := debughttp.RegisterFlags(flag.CommandLine, "trace-out")
	flag.Parse()

	if obsFlags.DebugAddr != "" {
		// Every fluid.Simulator the studies build from here on samples
		// data-plane telemetry into the registry /varz serves.
		fluid.SetDefaultTelemetry(fluid.NewTelemetry(obs.DefaultRegistry))
	}
	_, stopObs, err := obsFlags.Start("sbsim")
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopObs(); err != nil {
			fatal(err)
		}
	}()

	var trace *coflow.Trace
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fatal(err)
		}
		trace, err = coflow.Parse(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *tracePath, err))
		}
		fmt.Printf("loaded trace: %d racks, %d coflows, %d flows, %.0fs\n",
			trace.NumRacks, len(trace.Coflows), trace.TotalFlows(), trace.Duration())
	}

	switch *study {
	case "affected":
		var rates []float64
		for _, s := range strings.Split(*ratesStr, ",") {
			if s == "" {
				continue
			}
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				fatal(fmt.Errorf("bad rate %q: %w", s, err))
			}
			rates = append(rates, v)
		}
		cfg := sharebackup.Fig1Config{K: *k, Seed: *seed, Rates: rates, Trials: *trials, Trace: trace}
		var (
			res *sharebackup.Fig1Result
			err error
		)
		if *kind == "node" {
			res, err = sharebackup.Fig1a(cfg)
		} else {
			res, err = sharebackup.Fig1b(cfg)
		}
		if err != nil {
			fatal(err)
		}
		flows, cfs := res.Series(*kind + " failure rate")
		out, err := metrics.RenderSeries(
			fmt.Sprintf("affected flows/coflows vs %s failure rate (k=%d)", *kind, *k), flows, cfs)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		fmt.Printf("single %s failure: %.2f%% flows, %.2f%% coflows\n",
			*kind, res.SingleFlowPct, res.SingleCoflowPct)

	case "cct":
		res, err := sharebackup.Fig1c(sharebackup.Fig1cConfig{
			K: *k, Seed: *seed, Coflows: *coflows, Scenarios: *scenarios,
			Window: *window, Windows: *windows,
		})
		if err != nil {
			fatal(err)
		}
		for _, a := range res {
			cdf := a.CDF()
			fmt.Printf("%-12s affected=%d disconnected=%d\n", a.Name, len(a.Slowdowns), a.Disconnected)
			if cdf.N() == 0 {
				continue
			}
			for _, pt := range cdf.Points(10) {
				fmt.Printf("  slowdown <= %8.3f : %5.1f%%\n", pt[0], 100*pt[1])
			}
		}

	default:
		fatal(fmt.Errorf("unknown study %q", *study))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sbsim:", err)
	os.Exit(1)
}
