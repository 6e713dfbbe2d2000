package sharebackup

// One benchmark per table and figure of the paper (see EXPERIMENTS.md),
// plus microbenchmarks of the hot operations and ablation benches for the
// design choices called out in DESIGN.md. The per-figure benches regenerate
// the experiment once per iteration and report its headline quantity via
// b.ReportMetric, so `go test -bench .` doubles as the reproduction harness.

import (
	"testing"
	"time"

	"sharebackup/internal/circuit"
	"sharebackup/internal/coflow"
	"sharebackup/internal/controller"
	"sharebackup/internal/cost"
	"sharebackup/internal/emu"
	"sharebackup/internal/fluid"
	"sharebackup/internal/routing"
	"sharebackup/internal/sbnet"
	"sharebackup/internal/topo"
)

// BenchmarkFig1a regenerates Figure 1(a): % flows/coflows affected by node
// failures.
func BenchmarkFig1a(b *testing.B) {
	var single float64
	for i := 0; i < b.N; i++ {
		res, err := Fig1a(Fig1Config{K: 8, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		single = res.SingleCoflowPct
	}
	b.ReportMetric(single, "single-failure-coflow-%")
}

// BenchmarkFig1b regenerates Figure 1(b): % flows/coflows affected by link
// failures.
func BenchmarkFig1b(b *testing.B) {
	var single float64
	for i := 0; i < b.N; i++ {
		res, err := Fig1b(Fig1Config{K: 8, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		single = res.SingleCoflowPct
	}
	b.ReportMetric(single, "single-failure-coflow-%")
}

// BenchmarkFig1c regenerates Figure 1(c): the CCT-slowdown CDF per
// architecture under single failures.
func BenchmarkFig1c(b *testing.B) {
	var worstReroute float64
	for i := 0; i < b.N; i++ {
		res, err := Fig1c(Fig1cConfig{K: 8, Seed: 1, Coflows: 20, Scenarios: 6})
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range res {
			if a.Name == "ShareBackup" {
				continue
			}
			if c := a.CDF(); c.N() > 0 && c.Inverse(1) > worstReroute {
				worstReroute = c.Inverse(1)
			}
		}
	}
	b.ReportMetric(worstReroute, "worst-reroute-slowdown-x")
}

// BenchmarkFig1cStudy is the profile target for the data-plane hot path: one
// of the end-to-end benchmark's pinned k=16 studies per iteration, checked
// against benchmarks/golden/golden.json. Iteration i runs the i-th sub-seed
// in ascending order, so `-benchtime 1x` (make bench) costs one cheap study
// and `-benchtime 40x -cpuprofile cpu.out` profiles the whole sim-fig1c set.
func BenchmarkFig1cStudy(b *testing.B) {
	fps, seeds := readGoldenFig1c(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := seeds[i%len(seeds)]
		runGoldenStudy(b, seed, fps[seed])
	}
}

// BenchmarkTable2regenerates Table 2: the cost equations at k=48.
func BenchmarkTable2(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		rows, err := cost.Compare(48, 1, cost.EDC)
		if err != nil {
			b.Fatal(err)
		}
		rel = rows[0].Relative
	}
	b.ReportMetric(rel*100, "sharebackup-extra-%of-fattree")
}

// BenchmarkFig5 regenerates Figure 5: the cost sweep over k.
func BenchmarkFig5(b *testing.B) {
	var points int
	for i := 0; i < b.N; i++ {
		series, err := Fig5()
		if err != nil {
			b.Fatal(err)
		}
		points = 0
		for _, s := range series {
			points += s.Len()
		}
	}
	b.ReportMetric(float64(points), "points")
}

// BenchmarkTable3 regenerates Table 3: measured bandwidth loss / path
// dilation / upstream repair per architecture.
func BenchmarkTable3(b *testing.B) {
	var sbThroughput float64
	for i := 0; i < b.N; i++ {
		rows, err := Table3(4, 1)
		if err != nil {
			b.Fatal(err)
		}
		sbThroughput = rows[0].Throughput / rows[0].BaselineThroughput
	}
	b.ReportMetric(sbThroughput, "sharebackup-throughput-ratio")
}

// BenchmarkCapacity regenerates the Section 5.1 capacity measurements.
func BenchmarkCapacity(b *testing.B) {
	var tolerated int
	for i := 0; i < b.N; i++ {
		res, err := Capacity(8, 2)
		if err != nil {
			b.Fatal(err)
		}
		tolerated = res.ToleratedSwitchFailures
	}
	b.ReportMetric(float64(tolerated), "tolerated-failures-per-group")
}

// BenchmarkRecoveryLatency regenerates the Section 5.3 latency comparison.
func BenchmarkRecoveryLatency(b *testing.B) {
	var sbTotal time.Duration
	for i := 0; i < b.N; i++ {
		rows, err := RecoveryLatency(8)
		if err != nil {
			b.Fatal(err)
		}
		sbTotal = rows[0].Total
	}
	b.ReportMetric(float64(sbTotal.Nanoseconds()), "sharebackup-recovery-ns")
}

// BenchmarkTableSize regenerates the Section 4.3 combined-table arithmetic.
func BenchmarkTableSize(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		rows, err := TableSizes([]int{64})
		if err != nil {
			b.Fatal(err)
		}
		total = rows[0].Total
	}
	b.ReportMetric(float64(total), "entries-at-k64")
}

// BenchmarkTransientStudy regenerates the beyond-the-paper transient
// experiment: the recovery window applied mid-transfer.
func BenchmarkTransientStudy(b *testing.B) {
	var sbMax float64
	for i := 0; i < b.N; i++ {
		rows, err := TransientStudy(TransientConfig{K: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		sbMax = rows[0].MaxSlowdown
	}
	b.ReportMetric(sbMax, "sharebackup-max-slowdown-x")
}

// --- Microbenchmarks of the hot operations ---

// BenchmarkEmuDeliver times one physical-layer packet walk through circuit
// state and impersonation tables.
func BenchmarkEmuDeliver(b *testing.B) {
	net, err := sbnet.New(sbnet.Config{K: 16, N: 1, Tech: circuit.Crosspoint})
	if err != nil {
		b.Fatal(err)
	}
	em, err := emu.New(net)
	if err != nil {
		b.Fatal(err)
	}
	src := emu.Host{Pod: 0, Rack: 0, Pos: 0}
	dst := emu.Host{Pod: 9, Rack: 5, Pos: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.Deliver(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplaceSwitch times one failover (circuit reconfiguration across
// the failure group) including invariant-relevant state updates.
func BenchmarkReplaceSwitch(b *testing.B) {
	net, err := sbnet.New(sbnet.Config{K: 16, N: 1, Tech: circuit.Crosspoint})
	if err != nil {
		b.Fatal(err)
	}
	g := net.AggGroup(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := g.Slots()[0]
		backup, _, err := net.Replace(victim)
		if err != nil {
			b.Fatal(err)
		}
		// Return the victim so the pool never empties.
		if err := net.Release(victim); err != nil {
			b.Fatal(err)
		}
		_ = backup
	}
}

// BenchmarkMaxMinRates times one progressive-filling pass over an
// all-to-all workload on a k=8 fat-tree (992 flows).
func BenchmarkMaxMinRates(b *testing.B) {
	ft, err := topo.NewFatTree(topo.Config{K: 8, HostsPerEdge: 1, HostCapacity: 40})
	if err != nil {
		b.Fatal(err)
	}
	flows, err := allToAllFlows(ft, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := fluid.New(ft.Topology)
		for j, f := range flows {
			if err := sim.AddFlow(fluid.FlowID(j), 1e12, 0, f.path); err != nil {
				b.Fatal(err)
			}
		}
		if err := sim.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkECMPPathFor times flow-to-path assignment.
func BenchmarkECMPPathFor(b *testing.B) {
	ft, err := topo.NewFatTree(topo.Config{K: 16, HostsPerEdge: 1, HostCapacity: 80})
	if err != nil {
		b.Fatal(err)
	}
	e := &routing.ECMP{FT: ft, Seed: 7}
	n := ft.NumHosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PathFor(i%n, (i+n/2)%n, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVLANTableLookup times the combined-table lookup a backup switch
// performs while impersonating (Section 4.3).
func BenchmarkVLANTableLookup(b *testing.B) {
	vt, err := routing.BuildVLANTable(64, 0)
	if err != nil {
		b.Fatal(err)
	}
	dst := routing.Addr{A: 10, B: 9, C: 3, D: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := vt.Lookup(i%32, dst); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkOfflineDiagnosis times one link-failure diagnosis round.
func BenchmarkOfflineDiagnosis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net, err := sbnet.New(sbnet.Config{K: 8, N: 1, Tech: circuit.Crosspoint})
		if err != nil {
			b.Fatal(err)
		}
		ctl := controller.New(net, controller.Config{})
		edge := net.EdgeGroup(0).Slots()[0]
		agg := net.AggGroup(0).Slots()[0]
		if err := net.InjectPortFailure(edge, 4); err != nil {
			b.Fatal(err)
		}
		if _, err := ctl.ReportLinkFailure(
			controller.EndPoint{Switch: edge, Port: 4},
			controller.EndPoint{Switch: agg, Port: 0}, 0,
		); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := ctl.RunDiagnosis(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoflowGenerate times synthetic trace generation at the paper's
// scale (150 racks, 526 coflows), and one pass of the sim-fig1c benchmark's
// study picker: traces of 128 racks and 40 coflows over 300 s for seeds
// 1-172, the sub-seeds it scans to keep 40 studies.
func BenchmarkCoflowGenerate(b *testing.B) {
	b.Run("paper", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := coflow.Generate(coflow.GenConfig{Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("picker", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := int64(1); s <= 172; s++ {
				if _, err := coflow.Generate(coflow.GenConfig{Racks: 128, NumCoflows: 40, Duration: 300, Seed: s}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// --- Ablation benches (design choices from DESIGN.md) ---

// BenchmarkAblationDiagnosisBackupReturn measures backup-pool occupancy
// under a stream of link failures with and without offline diagnosis:
// replace-both-ends alone consumes two backups per failure; diagnosis
// returns the exonerated half, doubling effective capacity.
func BenchmarkAblationDiagnosisBackupReturn(b *testing.B) {
	run := func(diagnose bool) (consumed int) {
		net, err := sbnet.New(sbnet.Config{K: 8, N: 4, Tech: circuit.Crosspoint})
		if err != nil {
			b.Fatal(err)
		}
		ctl := controller.New(net, controller.Config{})
		for i := 0; i < 4; i++ {
			edge := net.EdgeGroup(0).Slots()[i]
			agg := net.AggGroup(0).Slots()[i]
			if err := net.InjectPortFailure(edge, 4+0); err != nil {
				b.Fatal(err)
			}
			if _, err := ctl.ReportLinkFailure(
				controller.EndPoint{Switch: edge, Port: 4},
				controller.EndPoint{Switch: agg, Port: i},
				time.Duration(i)*2*time.Second, // beyond the 1 s report window
			); err != nil {
				b.Fatal(err)
			}
			if diagnose {
				if _, err := ctl.RunDiagnosis(); err != nil {
					b.Fatal(err)
				}
			}
		}
		for _, g := range []*sbnet.Group{net.EdgeGroup(0), net.AggGroup(0)} {
			consumed += 4 - len(net.FreeBackups(g.ID))
		}
		return consumed
	}
	var with, without int
	for i := 0; i < b.N; i++ {
		with = run(true)
		without = run(false)
	}
	b.ReportMetric(float64(without), "backups-consumed-no-diagnosis")
	b.ReportMetric(float64(with), "backups-consumed-with-diagnosis")
}

// BenchmarkAblationKeepVsSwitchBack counts circuit reconfigurations under
// the paper's keep-the-backup-online policy versus a switch-back policy
// that restores the original assignment after every repair.
func BenchmarkAblationKeepVsSwitchBack(b *testing.B) {
	run := func(switchBack bool) int {
		net, err := sbnet.New(sbnet.Config{K: 8, N: 1, Tech: circuit.Crosspoint})
		if err != nil {
			b.Fatal(err)
		}
		base := net.TotalReconfigs()
		g := net.AggGroup(0)
		for round := 0; round < 8; round++ {
			victim := g.Slots()[round%4]
			backup, _, err := net.Replace(victim)
			if err != nil {
				b.Fatal(err)
			}
			if err := net.Release(victim); err != nil { // repaired
				b.Fatal(err)
			}
			if switchBack {
				// Swap the repaired switch back into its slot.
				if _, err := net.ReplaceWith(backup, victim); err != nil {
					b.Fatal(err)
				}
				if err := net.Release(backup); err != nil {
					b.Fatal(err)
				}
			}
		}
		return net.TotalReconfigs() - base
	}
	var keep, swap int
	for i := 0; i < b.N; i++ {
		keep = run(false)
		swap = run(true)
	}
	b.ReportMetric(float64(keep), "reconfigs-keep-policy")
	b.ReportMetric(float64(swap), "reconfigs-switchback-policy")
}

// BenchmarkAblationBackupPoolSize sweeps n and reports the probability a
// failure group overflows its pool — the cost/robustness trade-off behind
// Figure 5's n=1 vs n=4 curves.
func BenchmarkAblationBackupPoolSize(b *testing.B) {
	var p1, p4 float64
	for i := 0; i < b.N; i++ {
		res1, err := Capacity(8, 1)
		if err != nil {
			b.Fatal(err)
		}
		p1 = res1.PGroupOverflow
		res4, err := Capacity(8, 4)
		if err != nil {
			b.Fatal(err)
		}
		p4 = res4.PGroupOverflow
	}
	b.ReportMetric(p1*1e9, "overflow-prob-n1-x1e9")
	b.ReportMetric(p4*1e9, "overflow-prob-n4-x1e9")
}
