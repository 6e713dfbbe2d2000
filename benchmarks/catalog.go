package main

// metricDef declares one metric: BENCHMARK.json carries the same name, unit
// and direction (and, for end-to-end metrics, the same bound), and a test
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Doc    string
}

// endToEnd are the metrics of the untraced run. The driver wants every one
// of them from every workload, so they are named for the role they play and
// README.md says what the role is on each workload: the operation ("op") is
// a node recovery on live-node, a burst's restore-all on live-storm, one
// Fig. 1c study on sim-fig1c and one reroute wave on sim-storm.
//
// Every bound is the driver's maximum, a quarter. The driver keeps one bound
// per metric for all workloads, so the noisiest workload sets it: on the
// 2-vCPU sizing VM a noisy half hour spreads the sim workloads' ten-run
// medians by up to 17 % (3-5 % in a quiet one) and moves them by up to 11 %
// between two sets of ten runs of one commit, even at the reference speed.
// The live workloads repeat within 3 %; README.md has the table.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median set-up: one cluster / topology+schedule / study-set selection and warm-up"},
	{"op_p50_ms", "ms", "lower", 0.25, "median latency of the workload's operation; live: from its due time, sim: at the reference speed"},
	{"op_tail_ms", "ms", "lower", 0.25, "highest of p50/p75/p90 of the operation's latency with at least 10 samples beyond it"},
	{"peak_rss_mb", "MB", "lower", 0.25, "peak resident set of the benchmark process"},
}

// perLayer are the metrics of the traced run, layer = module name. Every
// traced run measures all of them: the layers the workload drives at the
// workload's size, the others at a small fixed probe size.
var perLayer = []metricDef{
	// ctlnet
	{Name: "ctlnet.detect_lag_p50_ms", Unit: "ms", Better: "lower", Doc: "RecoveryEvent.Latency of node events: last keep-alive to recovered, as the server measures it"},
	{Name: "ctlnet.detect_lag_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "ctlnet.storm_drain_p50_ms", Unit: "ms", Better: "lower", Doc: "first to last recovery of a 64-switch burst: the detection timer cancels out"},
	{Name: "ctlnet.link_recovery_p50_us", Unit: "us", Better: "lower", Doc: "link report due-time to ack through consensus, untraced, 128 reports at 50/s: the control path with no detection timer in it"},
	{Name: "ctlnet.link_recovery_p90_us", Unit: "us", Better: "lower"},
	{Name: "ctlnet.report_rtt_p50_us", Unit: "us", Better: "lower", Doc: "link report to recovery event against a standalone server (no consensus)"},
	{Name: "ctlnet.cs_reconfig_rtt_p50_us", Unit: "us", Better: "lower", Doc: "CSClient.Reconfigure round trip"},
	{Name: "ctlnet.ka_cpu_ns", Unit: "ns", Better: "lower", Doc: "process CPU per keep-alive, 128 single connections"},
	{Name: "ctlnet.ka_grouped_cpu_ns", Unit: "ns", Better: "lower", Doc: "process CPU per keep-alive, the same 128 agents over 2 DialGroup connections"},
	{Name: "ctlnet.ka_delivered_frac", Unit: "frac", Better: "higher", Doc: "keep-alives the server counted over keep-alives due"},
	{Name: "ctlnet.server_goroutines", Unit: "count", Better: "lower"},
	{Name: "ctlnet.dial_hello_ms", Unit: "ms", Better: "lower", Doc: "Dial + hello + failure-group table preload"},
	// ctlplane
	{Name: "ctlplane.commit_p50_us", Unit: "us", Better: "lower", Doc: "solo Node.Propose, 3 nodes over TCPTransport"},
	{Name: "ctlplane.commit_p95_us", Unit: "us", Better: "lower"},
	{Name: "ctlplane.commits_per_s_depth8", Unit: "1/s", Better: "higher", Doc: "8 concurrent proposers"},
	{Name: "ctlplane.entries_per_recovery", Unit: "ratio", Better: "lower", Doc: "log entries committed per recovery in a burst: BatchProposer folding"},
	{Name: "ctlplane.election_ms", Unit: "ms", Better: "lower", Doc: "cold start to first leader"},
	{Name: "ctlplane.failover_outage_ms", Unit: "ms", Better: "lower", Doc: "leader stop to the next committed proposal, proposals sent on a 2 ms schedule"},
	{Name: "ctlplane.snapshot_us", Unit: "us", Better: "lower"},
	// controller, sbnet, circuit, routing tables
	{Name: "controller.recover_node_us", Unit: "us", Better: "lower", Doc: "in-process RecoverNode host time"},
	{Name: "controller.recover_link_us", Unit: "us", Better: "lower", Doc: "in-process ReportLinkFailure host time"},
	{Name: "sbnet.new_ms", Unit: "ms", Better: "lower", Doc: "sbnet.New(k=16, n=8)"},
	{Name: "sbnet.replace_us", Unit: "us", Better: "lower", Doc: "Network.Replace"},
	{Name: "circuit.apply_ns", Unit: "ns", Better: "lower", Doc: "Switch.Apply of one swap"},
	{Name: "routing.vlan_table_build_us", Unit: "us", Better: "lower", Doc: "BuildVLANTable(k=16)"},
	// the program's own per-hop attribution, from its stitched trace files
	{Name: "hop.detection_p50_ms", Unit: "ms", Better: "lower", Doc: "node recoveries: detection hop"},
	{Name: "hop.report_p50_us", Unit: "us", Better: "lower", Doc: "link recoveries: the controller's apply"},
	{Name: "hop.sum_over_total", Unit: "ratio", Better: "higher", Doc: "hops over the trace's own total; must be 1 +- 0.05"},
	{Name: "hop.explained_frac_node", Unit: "frac", Better: "higher", Doc: "node recoveries: hops over the latency the benchmark measured (detection counts from the last keep-alive, so it can pass 1)"},
	{Name: "hop.explained_frac_link", Unit: "frac", Better: "higher", Doc: "link recoveries: hops over the measured report-to-ack latency; the rest is wire, consensus and publish, which the program's trace does not attribute"},
	{Name: "obs.trace_overhead_frac", Unit: "frac", Better: "lower", Doc: "traced over untraced op_p50_ms of this workload, minus 1"},
	{Name: "obs.link_trace_overhead_frac", Unit: "frac", Better: "lower", Doc: "link recovery p50 with the program's trace files on over off, minus 1"},
	{Name: "obs.stitch_ms", Unit: "ms", Better: "lower", Doc: "obs.Stitch of one epoch's trace files"},
	{Name: "obs.stitch_complete_frac", Unit: "frac", Better: "higher", Doc: "recoveries with a complete stitched trace"},
	// failure-study pipeline
	{Name: "coflow.generate_ms", Unit: "ms", Better: "lower", Doc: "coflow.Generate + Partition of one window"},
	{Name: "coflow.flows", Unit: "count", Better: "lower", Doc: "routed flows per window"},
	{Name: "topo.fattree_build_ms", Unit: "ms", Better: "lower", Doc: "NewFatTree(k=32, 4 hosts/edge)"},
	{Name: "topo.pathstore_warm_ms", Unit: "ms", Better: "lower", Doc: "building a storm schedule on a cold PathStore"},
	{Name: "topo.pathstore_paths_ns", Unit: "ns", Better: "lower", Doc: "warm PathStore.Paths"},
	{Name: "topo.pathstore_interned", Unit: "count", Better: "lower", Doc: "paths interned by one storm schedule"},
	{Name: "routing.pathfor_ns", Unit: "ns", Better: "lower", Doc: "ECMP.PathFor"},
	{Name: "routing.global_reroute_us", Unit: "us", Better: "lower", Doc: "GlobalOptimalReroute per affected flow"},
	{Name: "routing.f10_reroute_us", Unit: "us", Better: "lower", Doc: "F10LocalReroute per affected flow"},
	{Name: "routing.reroute_found_frac", Unit: "frac", Better: "higher"},
	{Name: "fluid.addflow_ns", Unit: "ns", Better: "lower", Doc: "storm: per AddFlow"},
	{Name: "fluid.setpath_ns", Unit: "ns", Better: "lower", Doc: "storm: per SetPath"},
	{Name: "fluid.run_ns_per_event", Unit: "ns", Better: "lower", Doc: "storm: time in Run per event"},
	{Name: "fluid.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "fluid.recompute_work_per_event", Unit: "count", Better: "lower", Doc: "storm: flow x link incidences touched per event (exact)"},
	{Name: "fluid.recomputes", Unit: "count", Better: "lower"},
	{Name: "fluid.full_recomputes", Unit: "count", Better: "lower"},
	{Name: "fluid.components", Unit: "count", Better: "lower"},
	{Name: "fluid.heap_pops", Unit: "count", Better: "lower"},
	{Name: "fluid.ripple_passes", Unit: "count", Better: "higher"},
	{Name: "fluid.ripple_expansions", Unit: "count", Better: "lower"},
	{Name: "fluid.ripple_fallbacks", Unit: "count", Better: "lower"},
	{Name: "fluid.ripple_settled_frac", Unit: "frac", Better: "higher", Doc: "recompute passes the ripple pass settled"},
	{Name: "fluid.parallel_passes", Unit: "count", Better: "higher"},
	{Name: "fluid.workers_speedup", Unit: "x", Better: "higher", Doc: "storm replay at SetWorkers(1) over GOMAXPROCS"},
	{Name: "fluid.fig1c_run_ns_per_event", Unit: "ns", Better: "lower", Doc: "staged Fig. 1c replays: arrivals and completions only"},
	{Name: "fluid.fig1c_recompute_work_per_event", Unit: "count", Better: "lower"},
	{Name: "fluid.fig1c_ripple_settled_frac", Unit: "frac", Better: "higher"},
	{Name: "sweep.dispatch_us_per_shard", Unit: "us", Better: "lower", Doc: "sweep.Run over no-op shards"},
	{Name: "sweep.workers_speedup", Unit: "x", Better: "higher", Doc: "Fig1c at Workers 1 over GOMAXPROCS"},
	// validity of everything above
	{Name: "bench.gen_late_p95_us", Unit: "us", Better: "lower", Doc: "how late the open-loop generator issued injections"},
	{Name: "bench.samples_node", Unit: "count", Better: "higher"},
	{Name: "bench.samples_link", Unit: "count", Better: "higher"},
	{Name: "bench.trace_coverage", Unit: "frac", Better: "higher", Doc: "staged Fig. 1c pipeline time over Fig1c's wall at Workers 1"},
	{Name: "bench.false_recovery_frac", Unit: "frac", Better: "lower", Doc: "recoveries of switches the generator never failed, over agents"},
	// where the traced workload's operation time went, by layer
	{Name: "share.ctlnet", Unit: "frac", Better: "lower"},
	{Name: "share.controller", Unit: "frac", Better: "lower"},
	{Name: "share.circuit", Unit: "frac", Better: "lower"},
	{Name: "share.coflow", Unit: "frac", Better: "lower"},
	{Name: "share.routing", Unit: "frac", Better: "lower"},
	{Name: "share.topo", Unit: "frac", Better: "lower"},
	{Name: "share.fluid", Unit: "frac", Better: "lower"},
	{Name: "share.bench", Unit: "frac", Better: "lower", Doc: "operation time no layer span covers: wire, consensus and publish on live workloads"},
}
