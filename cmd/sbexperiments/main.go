// Command sbexperiments regenerates every table and figure of the paper
// (see EXPERIMENTS.md for the index). Each experiment prints the rows or
// series the paper reports.
//
// Usage:
//
//	sbexperiments [-run all|fig1a|fig1b|fig1c|table2|fig5|table3|capacity|latency|tablesize|extensions|transient|montecarlo|recovery]
//	              [-k N] [-n N] [-seed S] [-full] [-workers N] [-trials N]
//	              [-coflow-trace FILE] [-json FILE] [-trace FILE] [-events]
//
// -run takes a comma-separated list. -full runs the paper-scale
// configurations (k=16 failure study, a 1e8-hour Monte-Carlo horizon); the
// default is a laptop-scale run with the same shapes. -coflow-trace replays
// a coflow-benchmark trace file (e.g. FB2010-1Hr-150-0.txt) in Figure
// 1(a)/(b) instead of the synthetic workload. -trials sets the failovers per
// kind of the recovery study; -json writes that study's result (per-phase
// percentiles per circuit technology and recovery kind) to the named file as
// indented JSON: without -run it runs the study alone.
//
// Each experiment is a plan: its library config, built from the flags it
// reads. Before it loads a trace, creates -json's file or prints a byte,
// sbexperiments refuses (exit 2) a flag set explicitly that no experiment in
// -run reads, a config that a selected experiment's library check rejects,
// and a -coflow-trace or -json file it cannot read or create. -run and the
// obs flags below are not checked.
//
// -trace writes every structured control-plane event as JSONL (summarize
// with sbtap); -events logs them human-readably to stderr; -debug-addr serves
// /varz, where the sweep.* gauges report a running sweep's progress.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"sharebackup"
	"sharebackup/internal/coflow"
	"sharebackup/internal/cost"
	"sharebackup/internal/failure"
	"sharebackup/internal/fluid"
	"sharebackup/internal/metrics"
	"sharebackup/internal/obs"
	"sharebackup/internal/obs/debughttp"
	"sharebackup/internal/topo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// order is what -run all runs.
var order = []string{"fig1a", "fig1b", "fig1c", "table2", "fig5", "table3", "capacity", "latency", "tablesize", "extensions", "transient", "montecarlo", "recovery"}

// plan is one experiment: the flags it reads besides -run and the obs flags,
// its library's check of the config built from them (nil: it reads none),
// and its run.
type plan struct {
	reads []string
	check func() error
	run   func() error
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sbexperiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runList   = fs.String("run", "", "comma-separated experiments: all (the default), "+strings.Join(order, ", "))
		k         = fs.Int("k", 0, "fat-tree parameter override (0 = experiment default)")
		n         = fs.Int("n", 1, "backup switches per failure group")
		seed      = fs.Int64("seed", 1, "deterministic seed")
		full      = fs.Bool("full", false, "run paper-scale configurations (slower)")
		jsonPath  = fs.String("json", "", "write the recovery study's per-phase percentiles to this file as JSON (runs the study alone unless -run is given)")
		trials    = fs.Int("trials", 32, "failovers per kind for the recovery study")
		workers   = fs.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS; results are identical for any value)")
		tracePath = fs.String("coflow-trace", "", "coflow-benchmark trace file for fig1a/fig1b (default: synthetic trace)")
	)
	obsFlags := debughttp.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// jsonFile is -json's file, created once every check has passed; a run
	// that fails removes it.
	var jsonFile *os.File
	refuse := func(name string, err error) int {
		fmt.Fprintf(stderr, "sbexperiments: %s: %v\n", name, err)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sbexperiments:", err)
		if jsonFile != nil {
			os.Remove(jsonFile.Name())
		}
		return 1
	}

	// Each experiment's library config, built from the flags. -k 0 is each
	// study's laptop scale (k=8; Table 2's k=48 data center; the Monte-Carlo
	// group of a k=16 fabric), and -full the paper's (the k=16 failure
	// study, one failure per 5-minute window of Fig. 1(c)'s hour, a
	// 1e8-hour Monte-Carlo horizon). fig1.Trace and recovery.TraceSink are
	// set below, before anything runs.
	kOr := func(def int) int { return cmp.Or(*k, def) }
	studyK := kOr(8)
	fig1 := sharebackup.Fig1Config{K: studyK, Seed: *seed, Workers: *workers}
	fig1c := sharebackup.Fig1cConfig{K: studyK, Seed: *seed, Workers: *workers}
	monteCarlo := failure.AvailabilityConfig{GroupSize: kOr(16) / 2, Backups: *n, Horizon: 1e6, Seed: *seed, Shards: 64, Workers: *workers}
	if *full {
		fig1.K, fig1c.K = kOr(16), kOr(16)
		monteCarlo.Horizon, monteCarlo.Shards = 1e8, 256
		if *k == 0 {
			fig1c.Coflows, fig1c.Windows, fig1c.Scenarios = 40, 12, 24
		}
	}
	transient := sharebackup.TransientConfig{K: studyK, Seed: *seed}
	recovery := sharebackup.RecoveryBenchConfig{K: studyK, N: *n, Trials: *trials, Workers: *workers}
	fig1Reads := []string{"k", "seed", "full", "workers", "coflow-trace"}
	plans := map[string]plan{
		"fig1a":      {fig1Reads, fig1.Check, func() error { return runFig1(stdout, true, fig1) }},
		"fig1b":      {fig1Reads, fig1.Check, func() error { return runFig1(stdout, false, fig1) }},
		"fig1c":      {[]string{"k", "seed", "full", "workers"}, fig1c.Check, func() error { return runFig1c(stdout, fig1c) }},
		"table2":     {[]string{"k", "n"}, func() error { return cost.Check(kOr(48), *n) }, func() error { return runTable2(stdout, kOr(48), *n) }},
		"table3":     {[]string{"k", "seed"}, func() error { return topo.CheckK(studyK) }, func() error { return runTable3(stdout, studyK, *seed) }},
		"fig5":       {nil, nil, func() error { return runFig5(stdout) }},
		"capacity":   {[]string{"k", "n"}, sharebackup.Config{K: studyK, N: *n}.Check, func() error { return runCapacity(stdout, studyK, *n) }},
		"latency":    {[]string{"k"}, func() error { return sharebackup.CheckEveryTechnology(studyK, 1) }, func() error { return runLatency(stdout, studyK) }},
		"tablesize":  {nil, nil, func() error { return runTableSize(stdout) }},
		"extensions": {[]string{"k", "seed"}, sharebackup.Config{K: studyK, N: 1}.Check, func() error { return runExtensions(stdout, studyK, *seed) }},
		"transient":  {[]string{"k", "seed"}, transient.Check, func() error { return runTransient(stdout, transient) }},
		// The simulated failure group is one of a k-ary fat-tree's.
		"montecarlo": {[]string{"k", "n", "seed", "full", "workers"}, func() error { return errors.Join(topo.CheckK(kOr(16)), monteCarlo.Check()) }, func() error { return runMonteCarlo(stdout, monteCarlo) }},
		"recovery":   {[]string{"k", "n", "trials", "workers", "json"}, recovery.Check, func() error { return runRecovery(stdout, recovery, jsonFile) }},
	}

	selected := strings.Split(*runList, ",")
	switch {
	case *runList == "" && *jsonPath != "":
		selected = []string{"recovery"}
	case *runList == "" || *runList == "all":
		selected = order
	}
	// Every selected plan's library check, before anything loads or runs.
	// readBy maps a flag to the first selected experiment that reads it.
	readBy := make(map[string]string)
	for _, name := range selected {
		p, ok := plans[name]
		if !ok {
			fmt.Fprintf(stderr, "sbexperiments: unknown experiment %q\n", name)
			return 2
		}
		if p.check != nil {
			if err := p.check(); err != nil {
				return refuse(name, err)
			}
		}
		for _, f := range p.reads {
			readBy[f] = cmp.Or(readBy[f], name)
		}
	}
	// A flag set explicitly that no selected experiment reads is refused
	// too. -run and the obs flags serve the whole process; no experiment
	// reads them and they are not checked.
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	for _, flagName := range set {
		readers := slices.DeleteFunc(slices.Clone(order), func(name string) bool { return !slices.Contains(plans[name].reads, flagName) })
		if len(readers) > 0 && readBy[flagName] == "" {
			fmt.Fprintf(stderr, "sbexperiments: no experiment in -run reads -%s; add %s to -run\n", flagName, strings.Join(readers, " or "))
			return 2
		}
	}
	// A trace that cannot be read and a -json file that cannot be created
	// are bad flag values too.
	var err error
	if *tracePath != "" {
		if fig1.Trace, err = loadTrace(*tracePath); err != nil {
			return refuse(readBy["coflow-trace"], fmt.Errorf("-coflow-trace: %w", err))
		}
	}
	if *jsonPath != "" {
		if jsonFile, err = os.Create(*jsonPath); err != nil {
			return refuse(readBy["json"], fmt.Errorf("-json: %w", err))
		}
		defer jsonFile.Close()
	}
	if tr := fig1.Trace; tr != nil {
		fmt.Fprintf(stdout, "loaded trace: %d racks, %d coflows (%d dropped: no cross-rack flow), %d flows, %.0fs\n",
			tr.NumRacks, len(tr.Coflows), tr.Dropped, tr.TotalFlows(), tr.Duration())
	}

	if obsFlags.DebugAddr != "" {
		// Every fluid.Simulator the experiments build from here on samples
		// data-plane telemetry into the registry /varz serves.
		fluid.SetDefaultTelemetry(fluid.NewTelemetry(obs.DefaultRegistry))
	}
	traceSink, stopObs, err := obsFlags.Start("sbexperiments", obs.Default)
	if err != nil {
		return fail(err)
	}
	recovery.TraceSink = traceSink
	defer func() {
		if err := stopObs(); err != nil {
			fmt.Fprintln(stderr, "sbexperiments:", err)
		}
	}()

	for _, name := range selected {
		fmt.Fprintf(stdout, "===== %s =====\n", name)
		if err := plans[name].run(); err != nil {
			return fail(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

func loadTrace(path string) (*coflow.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := coflow.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return tr, nil
}

func runFig1(w io.Writer, nodes bool, cfg sharebackup.Fig1Config) error {
	run := sharebackup.Fig1b
	if nodes {
		run = sharebackup.Fig1a
	}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	return printFig1(w, nodes, cfg.K, res)
}

// printFig1 renders one Figure 1(a)/(b) result: the two series, their
// chart, and the single-failure headline.
func printFig1(w io.Writer, nodes bool, k int, res *sharebackup.Fig1Result) error {
	name, kind := "Figure 1(b)", "link"
	if nodes {
		name, kind = "Figure 1(a)", "node"
	}
	flows, coflows := res.Series(kind + " failure rate")
	out, err := metrics.RenderSeries(
		fmt.Sprintf("%s — %% of flows and coflows affected by %s failures (k=%d)", name, kind, k),
		flows, coflows)
	if err != nil {
		return err
	}
	fmt.Fprint(w, out)
	plot := &metrics.Plot{Title: name + " (curves)"}
	if chart, err := plot.Render(coflows, flows); err == nil {
		fmt.Fprint(w, chart)
	}
	fmt.Fprintf(w, "single %s failure: %.2f%% of flows, %.2f%% of coflows affected (magnification %.1fx)\n",
		kind, res.SingleFlowPct, res.SingleCoflowPct,
		res.SingleCoflowPct/res.SingleFlowPct)
	return nil
}

func runFig1c(w io.Writer, cfg sharebackup.Fig1cConfig) error {
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
	fmt.Fprint(w, tbl.String())
	if chart, err := metrics.PlotCDF("CCT slowdown CDF (x = slowdown, y = % of affected coflows)", 24, curves); err == nil {
		fmt.Fprint(w, chart)
	}
	return nil
}

func runTable2(w io.Writer, k, n int) error {
	tbl, err := sharebackup.Table2(k, n)
	if err != nil {
		return err
	}
	fmt.Fprint(w, tbl.String())
	return nil
}

func runTable3(w io.Writer, k int, seed int64) error {
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
	fmt.Fprint(w, tbl.String())
	return nil
}

func runFig5(w io.Writer) error {
	series, err := sharebackup.Fig5()
	if err != nil {
		return err
	}
	out, err := metrics.RenderSeries("Figure 5 — additional cost relative to fat-tree", series...)
	if err != nil {
		return err
	}
	fmt.Fprint(w, out)
	return nil
}

func runCapacity(w io.Writer, k, n int) error {
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
	fmt.Fprint(w, tbl.String())
	return nil
}

func runLatency(w io.Writer, k int) error {
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
	fmt.Fprint(w, tbl.String())
	return nil
}

func runExtensions(w io.Writer, k int, seed int64) error {
	rows, err := sharebackup.ExtensionStudy(k, seed)
	if err != nil {
		return err
	}
	fmt.Fprint(w, sharebackup.RenderExtensionStudy(rows).String())

	aug, err := sharebackup.AugmentationStudy(k)
	if err != nil {
		return err
	}
	tbl := &metrics.Table{
		Title:   "Section 6 — activating idle backups (measured)",
		Headers: []string{"pods augmented", "fabric links added per pod", "failover still works"},
	}
	tbl.AddRow(aug.Pods, aug.FabricLinksAdded, fmt.Sprintf("%d of %d", aug.FailoverPods, aug.Pods))
	fmt.Fprint(w, tbl.String())
	return nil
}

func runTransient(w io.Writer, cfg sharebackup.TransientConfig) error {
	rows, err := sharebackup.TransientStudy(cfg)
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
	fmt.Fprint(w, tbl.String())
	return nil
}

func runTableSize(w io.Writer) error {
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
	fmt.Fprint(w, tbl.String())
	return nil
}

// runMonteCarlo runs the Section 5.1 group-availability simulation: one
// failure group of k/2 switches sharing n backups, at the paper's MTBF and
// MTTR, over a horizon split into independent slices.
func runMonteCarlo(w io.Writer, cfg failure.AvailabilityConfig) error {
	res, err := failure.SimulateGroupAvailability(cfg)
	if err != nil {
		return err
	}
	tbl := &metrics.Table{
		Title:   fmt.Sprintf("group availability (group=%d, n=%d, %d slices)", cfg.GroupSize, cfg.Backups, cfg.Shards),
		Headers: []string{"metric", "value"},
	}
	tbl.AddRow("switch failures simulated", res.Failures)
	tbl.AddRow("pool-overflow events", res.OverflowEvents)
	tbl.AddRow("overflow time fraction", res.OverflowFraction)
	tbl.AddRow("measured unavailability", res.Unavailability)
	tbl.AddRow("analytic overflow (binomial tail)", res.AnalyticOverflow)
	fmt.Fprint(w, tbl.String())
	return nil
}

// runRecovery runs the Section 5.3 many-failover recovery study and prints
// its total-latency percentiles per technology; with jsonFile it also writes
// the full result there as indented JSON.
func runRecovery(w io.Writer, cfg sharebackup.RecoveryBenchConfig, jsonFile *os.File) error {
	res, err := sharebackup.RunRecoveryBench(cfg)
	if err != nil {
		return err
	}
	tbl := &metrics.Table{
		Title:   fmt.Sprintf("recovery latency (k=%d, n=%d, %d trials/kind)", res.K, res.N, res.Trials),
		Headers: []string{"tech", "recoveries", "total p50 (µs)", "total p99 (µs)"},
	}
	for _, t := range res.Techs {
		total := t.PhasesUS["total"]
		tbl.AddRow(t.Tech, t.Recoveries, total.Median, total.P99)
	}
	fmt.Fprint(w, tbl.String())
	if jsonFile == nil {
		return nil
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if _, err := jsonFile.Write(append(data, '\n')); err != nil {
		return err
	}
	if err := jsonFile.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d techs, %d recoveries each)\n", jsonFile.Name(), len(res.Techs), res.Techs[0].Recoveries)
	return nil
}
