// Command sbexperiments regenerates every table and figure of the paper
// (see EXPERIMENTS.md for the index). Each experiment prints the rows or
// series the paper reports.
//
// Usage:
//
//	sbexperiments [-run all|fig1a|fig1b|fig1c|table2|table3|fig5|capacity|latency|tablesize]
//	              [-k N] [-n N] [-seed S] [-full] [-workers N]
//	              [-trace FILE] [-events] [-json FILE]
//
// -trace writes every structured control-plane event as JSONL (summarize
// with sbtap); -events logs them human-readably to stderr. -json runs the
// Section 5.3 many-failover recovery study and writes its result (per-phase
// percentiles per circuit technology and recovery kind) to the named file as
// indented JSON.
//
// -full runs the paper-scale configurations (k=16 failure study); the
// default is a laptop-scale run with the same shapes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"sharebackup"
	"sharebackup/internal/fluid"
	"sharebackup/internal/metrics"
	"sharebackup/internal/obs"
	"sharebackup/internal/obs/debughttp"
)

func main() {
	var (
		run      = flag.String("run", "all", "experiment to run (all, fig1a, fig1b, fig1c, table2, table3, fig5, capacity, latency, tablesize)")
		k        = flag.Int("k", 0, "fat-tree parameter override (0 = experiment default)")
		n        = flag.Int("n", 1, "backup switches per failure group")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		full     = flag.Bool("full", false, "run paper-scale configurations (slower)")
		jsonPath = flag.String("json", "", "run the many-failover recovery study and write its per-phase percentiles to this file as JSON")
		trials   = flag.Int("trials", 32, "failovers per kind for the -json recovery study")
		workers  = flag.Int("workers", 0, "sweep worker pool size for fig1a/fig1b/fig1c and the -json recovery study (0 = GOMAXPROCS; results are identical for any value)")
	)
	obsFlags := debughttp.RegisterFlags(flag.CommandLine, "trace")
	flag.Parse()

	if obsFlags.DebugAddr != "" {
		// Every fluid.Simulator the experiments build from here on samples
		// data-plane telemetry into the registry /varz serves.
		fluid.SetDefaultTelemetry(fluid.NewTelemetry(obs.DefaultRegistry))
	}
	traceSink, stopObs, err := obsFlags.Start("sbexperiments")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbexperiments:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopObs(); err != nil {
			fmt.Fprintln(os.Stderr, "sbexperiments:", err)
		}
	}()
	if *jsonPath != "" {
		if err := writeRecoveryJSON(*k, *n, *trials, *workers, *jsonPath, traceSink); err != nil {
			fmt.Fprintf(os.Stderr, "sbexperiments: recovery study: %v\n", err)
			os.Exit(1)
		}
		if *run == "all" {
			return
		}
	}

	experiments := map[string]func() error{
		"fig1a":      func() error { return runFig1(true, *k, *seed, *full, *workers) },
		"fig1b":      func() error { return runFig1(false, *k, *seed, *full, *workers) },
		"fig1c":      func() error { return runFig1c(*k, *seed, *full, *workers) },
		"table2":     func() error { return runTable2(*k, *n) },
		"table3":     func() error { return runTable3(*k, *seed) },
		"fig5":       runFig5,
		"capacity":   func() error { return runCapacity(*k, *n) },
		"latency":    func() error { return runLatency(*k) },
		"tablesize":  runTableSize,
		"extensions": func() error { return runExtensions(*k, *seed) },
		"transient":  func() error { return runTransient(*k, *seed) },
	}
	order := []string{"fig1a", "fig1b", "fig1c", "table2", "fig5", "table3", "capacity", "latency", "tablesize", "extensions", "transient"}

	selected := strings.Split(*run, ",")
	if *run == "all" {
		selected = order
	}
	for _, name := range selected {
		f, ok := experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "sbexperiments: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Printf("===== %s =====\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "sbexperiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func runFig1(nodes bool, k int, seed int64, full bool, workers int) error {
	cfg := sharebackup.Fig1Config{K: k, Seed: seed, Workers: workers}
	if cfg.K == 0 {
		if full {
			cfg.K = 16
		} else {
			cfg.K = 8
		}
	}
	var (
		res *sharebackup.Fig1Result
		err error
	)
	name, kind := "Figure 1(a)", "node"
	if nodes {
		res, err = sharebackup.Fig1a(cfg)
	} else {
		name, kind = "Figure 1(b)", "link"
		res, err = sharebackup.Fig1b(cfg)
	}
	if err != nil {
		return err
	}
	flows, coflows := res.Series(kind + " failure rate")
	out, err := metrics.RenderSeries(
		fmt.Sprintf("%s — %% of flows and coflows affected by %s failures (k=%d)", name, kind, cfg.K),
		flows, coflows)
	if err != nil {
		return err
	}
	fmt.Print(out)
	plot := &metrics.Plot{Title: name + " (curves)"}
	if chart, err := plot.Render(coflows, flows); err == nil {
		fmt.Print(chart)
	}
	fmt.Printf("single %s failure: %.2f%% of flows, %.2f%% of coflows affected (magnification %.1fx)\n",
		kind, res.SingleFlowPct, res.SingleCoflowPct,
		res.SingleCoflowPct/res.SingleFlowPct)
	return nil
}

func runFig1c(k int, seed int64, full bool, workers int) error {
	cfg := sharebackup.Fig1cConfig{K: k, Seed: seed, Workers: workers}
	if cfg.K == 0 {
		if full {
			// Paper scale: k=16, one failure per 5-minute window.
			cfg.K = 16
			cfg.Coflows = 40
			cfg.Windows = 12
			cfg.Scenarios = 24
		} else {
			cfg.K = 8
		}
	}
	res, err := sharebackup.Fig1c(cfg)
	if err != nil {
		return err
	}
	tbl := &metrics.Table{
		Title: fmt.Sprintf("Figure 1(c) — CCT slowdown under a single failure (k=%d, CDF points over affected coflows)",
			cfg.K),
		Headers: []string{"architecture", "p50", "p75", "p90", "p99", "max", "affected", "disconnected"},
	}
	curves := make(map[string]*metrics.CDF)
	for _, a := range res {
		cdf := a.CDF()
		tbl.AddRow(a.Name,
			cdf.Inverse(0.50), cdf.Inverse(0.75), cdf.Inverse(0.90), cdf.Inverse(0.99), cdf.Inverse(1),
			len(a.Slowdowns), a.Disconnected)
		if cdf.N() > 0 {
			curves[a.Name] = cdf
		}
	}
	fmt.Print(tbl.String())
	if chart, err := metrics.PlotCDF("CCT slowdown CDF (x = slowdown, y = %% of affected coflows)", 24, false, curves); err == nil {
		fmt.Print(chart)
	}
	return nil
}

func runTable2(k, n int) error {
	if k == 0 {
		k = 48
	}
	tbl, err := sharebackup.Table2(k, n)
	if err != nil {
		return err
	}
	fmt.Print(tbl.String())
	return nil
}

func runTable3(k int, seed int64) error {
	if k == 0 {
		k = 8
	}
	rows, err := sharebackup.Table3(k, seed)
	if err != nil {
		return err
	}
	tbl := &metrics.Table{
		Title:   fmt.Sprintf("Table 3 — measured performance characteristics (k=%d, one agg failure, all-to-all)", k),
		Headers: []string{"architecture", "no bw loss?", "no dilation?", "no upstream repair?", "throughput", "baseline", "max hops"},
	}
	check := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, r := range rows {
		tbl.AddRow(r.Arch, check(r.NoBandwidthLoss), check(r.NoPathDilation), check(r.NoUpstreamRepair),
			r.Throughput, r.BaselineThroughput, r.MaxHops)
	}
	fmt.Print(tbl.String())
	return nil
}

func runFig5() error {
	series, err := sharebackup.Fig5(nil, nil)
	if err != nil {
		return err
	}
	out, err := metrics.RenderSeries("Figure 5 — additional cost relative to fat-tree", series...)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func runCapacity(k, n int) error {
	if k == 0 {
		k = 8
	}
	res, err := sharebackup.Capacity(k, n)
	if err != nil {
		return err
	}
	tbl := &metrics.Table{
		Title:   "Section 5.1 — capacity to handle failures (measured)",
		Headers: []string{"metric", "value"},
	}
	tbl.AddRow("k", res.K)
	tbl.AddRow("n (backups per group)", res.N)
	tbl.AddRow("failure group size", res.GroupSize)
	tbl.AddRow("tolerated concurrent switch failures / group", res.ToleratedSwitchFailures)
	tbl.AddRow("link failures absorbed per faulty switch", res.LinkFailuresHandled)
	tbl.AddRow("backup ratio n/(k/2)", res.BackupRatio)
	tbl.AddRow("switch failure rate (paper)", res.SwitchFailureRate)
	tbl.AddRow("P[group exceeds n failures]", res.PGroupOverflow)
	fmt.Print(tbl.String())
	return nil
}

func runLatency(k int) error {
	if k == 0 {
		k = 8
	}
	rows, err := sharebackup.RecoveryLatency(k)
	if err != nil {
		return err
	}
	tbl := &metrics.Table{
		Title:   "Section 5.3 — recovery latency comparison",
		Headers: []string{"scheme", "detection", "comm", "reconfig/rule", "total"},
	}
	for _, r := range rows {
		tbl.AddRow(r.Scheme, r.Detection.String(), r.Comm.String(), r.Reconfig.String(), r.Total.String())
	}
	fmt.Print(tbl.String())
	return nil
}

func runExtensions(k int, seed int64) error {
	if k == 0 {
		k = 8
	}
	rows, err := sharebackup.ExtensionStudy(k, seed)
	if err != nil {
		return err
	}
	fmt.Print(sharebackup.RenderExtensionStudy(rows).String())

	augs, err := sharebackup.AugmentationStudy(k)
	if err != nil {
		return err
	}
	tbl := &metrics.Table{
		Title:   "Section 6 — activating idle backups (measured)",
		Headers: []string{"pod", "fabric links added", "host bandwidth added", "failover still works?"},
	}
	for _, a := range augs {
		ok := "yes"
		if !a.SurvivedFailover || !a.InvariantsHeldAfter {
			ok = "no"
		}
		tbl.AddRow(a.Pod, a.FabricLinksAdded, a.HostBandwidthAdded, ok)
	}
	fmt.Print(tbl.String())
	return nil
}

func runTransient(k int, seed int64) error {
	rows, err := sharebackup.TransientStudy(sharebackup.TransientConfig{K: k, Seed: seed})
	if err != nil {
		return err
	}
	tbl := &metrics.Table{
		Title:   "Transient study (beyond the paper) — recovery window applied mid-transfer, all-to-all, one agg failure",
		Headers: []string{"scheme", "recovery gap", "mean slowdown", "max slowdown", "disconnected"},
	}
	for _, r := range rows {
		tbl.AddRow(r.Scheme, r.Gap.String(), r.MeanSlowdown, r.MaxSlowdown, r.Disconnected)
	}
	fmt.Print(tbl.String())
	return nil
}

func runTableSize() error {
	rows, err := sharebackup.TableSizes([]int{8, 16, 32, 48, 64})
	if err != nil {
		return err
	}
	tbl := &metrics.Table{
		Title:   "Section 4.3 — VLAN-combined failure-group table sizes",
		Headers: []string{"k", "hosts", "in-bound", "out-bound", "total entries"},
	}
	for _, r := range rows {
		tbl.AddRow(r.K, r.Hosts, r.Inbound, r.Outbound, r.Total)
	}
	fmt.Print(tbl.String())
	return nil
}

// writeRecoveryJSON runs the many-failover recovery study and writes its
// result to path as indented JSON. Trials shard across workers; traceSink,
// when non-nil, receives every trial's events shard-tagged.
func writeRecoveryJSON(k, n, trials, workers int, path string, traceSink obs.Sink) error {
	res, err := sharebackup.RunRecoveryBench(sharebackup.RecoveryBenchConfig{
		K: k, N: n, Trials: trials, Workers: workers, TraceSink: traceSink,
	})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d techs, %d recoveries each)\n", path, len(res.Techs), res.Techs[0].Recoveries)
	return nil
}
