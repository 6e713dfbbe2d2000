package main

import (
	"fmt"
	"math"
	"strings"

	"sharebackup/internal/fluid"
)

// tracedResult is what a traced run hands to main.
type tracedResult struct {
	Metrics    map[string]float64 // one value per perLayer entry
	Attempted  int
	Failed     int
	Violations []string
}

// tracedRun produces the per-layer metrics for workload w. A third of the
// time goes to w untraced (the reference for tracing overhead), a third to
// w's traced unit, and the rest to every other unit at probe size plus the
// layer probes, so each layer is measured in every traced run: the ones w
// drives at w's size, the others at a fixed small one.
func tracedRun(w *workload, seed int64, seconds float64, tr *tracer) (*tracedResult, error) {
	third := seconds / 3
	ref, err := w.run(seed, third)
	if err != nil {
		return nil, fmt.Errorf("%s untraced reference: %w", w.Name, err)
	}
	res := &tracedResult{Attempted: ref.Attempted, Failed: ref.Failed, Violations: ref.Violations}

	units := make(map[string]*opStats, len(tracedUnits))
	var ownLo, ownHi int // span ID range of w's own unit
	for _, u := range tracedUnits {
		size := float64(probeSeconds)
		if u.Name == w.Name {
			size = third
			ownLo = tr.count()
		}
		st, err := u.run(seed, size, tr)
		if err != nil {
			return nil, fmt.Errorf("%s traced unit: %w", u.Name, err)
		}
		if u.Name == w.Name {
			ownHi = tr.count()
		}
		units[u.Name] = st
		res.Attempted += st.Attempted
		res.Failed += st.Failed
		for _, v := range st.Violations {
			res.Violations = append(res.Violations, u.Name+": "+v)
		}
	}
	// One untraced cluster of link reports: the control path's latency with
	// nothing in the way, and the reference for what the program's own trace
	// files cost it.
	links, err := runLive(liveLink, 1, 0, seed, false, nil)
	if err != nil {
		return nil, fmt.Errorf("live-link untraced probe: %w", err)
	}
	res.Attempted += links.Attempted
	res.Failed += links.Failed
	for _, v := range links.Violations {
		res.Violations = append(res.Violations, "live-link: "+v)
	}
	probes, err := runProbes(tr)
	if err != nil {
		return nil, err
	}

	m := map[string]float64(probes)
	spans := tr.snapshot()
	byName := totalsBy(spans, func(s span) string { return s.Name })

	// Live layers: the three live units' epochs.
	node, link, storm := units["live-node"].epochs, units["live-link"].epochs, units["live-storm"].epochs
	var lag, drain, late, sumOverTotal, hopDetect, hopReport, stitch []float64
	var hops, tracedRecoveries, falseRec, agents, samplesNode, samplesLink int
	var commits int64
	stormRecoveries := 0
	for _, set := range [][]*epochResult{node, link, storm} {
		for _, e := range set {
			lag = append(lag, e.DetectLagMS...)
			late = append(late, e.LateUS...)
			if e.Traces > 0 {
				stitch = append(stitch, e.StitchMS)
				hops += len(e.Hops)
				tracedRecoveries += e.Recoveries
			}
			falseRec += e.FalseRecoveries
			agents += defaultLive().Agents
			samplesNode += len(e.NodeMS)
			samplesLink += len(e.LinkMS)
			for _, h := range e.Hops {
				if h.Total > 0 {
					sumOverTotal = append(sumOverTotal, float64(h.Detection+h.Report+h.Reconfig)/float64(h.Total))
				}
				if h.Kind == "node" {
					hopDetect = append(hopDetect, ms(h.Detection))
				} else {
					hopReport = append(hopReport, us(h.Report))
				}
			}
		}
	}
	for _, e := range storm {
		drain = append(drain, e.DrainMS...)
		commits += e.CommitDelta
		stormRecoveries += e.Recoveries
	}
	lagSorted := sortedCopy(lag)
	m["ctlnet.detect_lag_p50_ms"] = percentile(lagSorted, 50)
	m["ctlnet.detect_lag_p95_ms"] = percentile(lagSorted, 95)
	m["ctlnet.storm_drain_p50_ms"] = median(drain)
	linkSorted := sortedCopy(links.OpMS)
	m["ctlnet.link_recovery_p50_us"] = percentile(linkSorted, 50) * 1e3
	m["ctlnet.link_recovery_p90_us"] = percentile(linkSorted, 90) * 1e3
	m["obs.link_trace_overhead_frac"] = ratio(median(units["live-link"].OpMS), median(links.OpMS)) - 1
	m["ctlplane.entries_per_recovery"] = ratio(float64(commits), float64(stormRecoveries))
	m["hop.detection_p50_ms"] = median(hopDetect)
	m["hop.report_p50_us"] = median(hopReport)
	m["hop.sum_over_total"] = median(sumOverTotal)
	m["hop.explained_frac_node"] = median(explainedOf(node))
	m["hop.explained_frac_link"] = median(explainedOf(link))
	m["obs.stitch_ms"] = mean(stitch)
	m["obs.stitch_complete_frac"] = ratio(float64(hops), float64(tracedRecoveries))
	m["bench.gen_late_p95_us"] = percentile(sortedCopy(late), 95)
	m["bench.samples_node"] = float64(samplesNode)
	m["bench.samples_link"] = float64(samplesLink)
	m["bench.false_recovery_frac"] = ratio(float64(falseRec), float64(agents))
	if s := m["hop.sum_over_total"]; math.Abs(s-1) > 0.05 {
		res.Violations = append(res.Violations, fmt.Sprintf("hop.sum_over_total = %.3f, want 1 +- 0.05", s))
	}

	// Failure-study layers: the staged Fig. 1c unit.
	fig := units["sim-fig1c"]
	var staged stagedStats
	for _, s := range fig.staged {
		staged.Flows += s.Flows
		staged.Reroutes += s.Reroutes
		staged.RerouteHits += s.RerouteHits
		staged.Events += s.Events
		addStats(&staged.Stats, s.Stats)
	}
	studies := float64(len(fig.staged))
	m["coflow.generate_ms"] = ms(byName["coflow.generate"].Total) / studies
	m["coflow.flows"] = float64(staged.Flows) / studies
	m["routing.pathfor_ns"] = byName["routing.pathfor"].perCallNS()
	m["routing.global_reroute_us"] = byName["routing.global_reroute"].perCallNS() / 1e3
	m["routing.f10_reroute_us"] = byName["routing.f10_reroute"].perCallNS() / 1e3
	m["routing.reroute_found_frac"] = 1
	if staged.Reroutes > 0 {
		m["routing.reroute_found_frac"] = float64(staged.RerouteHits) / float64(staged.Reroutes)
	}
	m["fluid.fig1c_run_ns_per_event"] = ratio(float64(byName["fluid.fig1c_run"].Total), float64(staged.Events))
	m["fluid.fig1c_recompute_work_per_event"] = ratio(float64(staged.Stats.RecomputeWork), float64(staged.Events))
	m["fluid.fig1c_ripple_settled_frac"] = ratio(float64(staged.Stats.RipplePasses), float64(staged.Stats.Recomputes))
	serialWall := sum(fig.fig1c.WallMS)
	m["bench.trace_coverage"] = ratio(sum(fig.OpMS), serialWall)
	pooled, err := runFig1cStudies(fig.fig1c.Studies, 0, nil)
	if err != nil {
		return nil, err
	}
	m["sweep.workers_speedup"] = ratio(serialWall, sum(pooled.WallMS))

	// Data-plane layers: the storm unit.
	st := units["sim-storm"]
	var add, set, run, serial, parallel float64
	var added, rerouted, events, mallocs float64
	var stats fluid.EngineStats
	for i, r := range st.storms {
		add += float64(r.AddFlow)
		set += float64(r.SetPath)
		run += float64(r.Run)
		added += float64(r.Added)
		rerouted += float64(r.Rerouted)
		events += float64(r.events())
		mallocs += float64(r.Mallocs)
		addStats(&stats, r.Stats)
		parallel += float64(r.inside())
		serial += float64(st.stormSerial[i].inside())
	}
	n := float64(len(st.storms))
	m["fluid.addflow_ns"] = ratio(add, added)
	m["fluid.setpath_ns"] = ratio(set, rerouted)
	m["fluid.run_ns_per_event"] = ratio(run, events)
	m["fluid.allocs_per_event"] = ratio(mallocs, events)
	m["fluid.recompute_work_per_event"] = ratio(float64(stats.RecomputeWork), events)
	m["fluid.recomputes"] = float64(stats.Recomputes) / n
	m["fluid.full_recomputes"] = float64(stats.FullRecomputes) / n
	m["fluid.heap_pops"] = float64(stats.HeapPops) / n
	m["fluid.ripple_passes"] = float64(stats.RipplePasses) / n
	m["fluid.ripple_expansions"] = float64(stats.RippleExpansions) / n
	m["fluid.ripple_fallbacks"] = float64(stats.RippleFallbacks) / n
	m["fluid.parallel_passes"] = float64(stats.ParallelPasses) / n
	m["fluid.components"] = float64(stats.Components) / n
	m["fluid.ripple_settled_frac"] = ratio(float64(stats.RipplePasses), float64(stats.Recomputes))
	m["fluid.workers_speedup"] = ratio(serial, parallel)
	m["topo.fattree_build_ms"] = ms(byName["topo.fattree_build"].Total) / n
	m["topo.pathstore_warm_ms"] = ms(byName["topo.pathstore_schedule"].Total) / n
	var interned float64
	for _, v := range st.interned {
		interned += float64(v)
	}
	m["topo.pathstore_interned"] = interned / n

	// Tracing overhead on w's own operation, and where its time went.
	own := units[w.Name]
	refOps := ref.OpMS
	if own.refOpMS != nil {
		refOps = own.refOpMS
	}
	m["obs.trace_overhead_frac"] = ratio(median(own.OpMS), median(refOps)) - 1
	var roots float64
	var ownSpans []span
	for _, s := range spans {
		if s.ID > ownLo && s.ID <= ownHi {
			ownSpans = append(ownSpans, s)
			if s.Parent == 0 {
				roots += float64(s.End - s.Start)
			}
		}
	}
	byLayer := totalsBy(ownSpans, span.layer)
	for _, d := range perLayer {
		if layer, ok := strings.CutPrefix(d.Name, "share."); ok {
			m[d.Name] = ratio(float64(byLayer[layer].Self), roots)
		}
	}

	for _, d := range perLayer {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("traced run produced no value for %s", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("traced run produced %v for %s", v, d.Name)
		}
	}
	res.Metrics = m
	return res, nil
}

// explainedOf pools the epochs' per-injection explained fractions.
func explainedOf(epochs []*epochResult) []float64 {
	var out []float64
	for _, e := range epochs {
		out = append(out, e.ExplainedFrac...)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }
