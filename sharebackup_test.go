package sharebackup

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"sharebackup/internal/coflow"
)

func TestSystemFailNode(t *testing.T) {
	sys, err := New(Config{K: 4, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	victim := sys.Network.EdgeGroup(0).Slots()[0]
	rec, err := sys.FailNode(victim, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Backup) != 1 {
		t.Fatalf("recovery = %+v", rec)
	}
	if rec.Total() <= 0 {
		t.Error("zero recovery latency")
	}
}

func TestSystemFailLink(t *testing.T) {
	sys, err := New(Config{K: 4, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	edge := sys.Network.EdgeGroup(0).Slots()[0]
	agg := sys.Network.AggGroup(0).Slots()[0]
	rec, err := sys.FailLink(
		EndPoint{Switch: edge, Port: 2},
		EndPoint{Switch: agg, Port: 0},
		time.Millisecond,
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Failed) != 2 {
		t.Fatalf("link recovery replaced %d switches, want 2", len(rec.Failed))
	}
}

func TestSystemValidation(t *testing.T) {
	if _, err := New(Config{K: 5, N: 1}); err == nil {
		t.Error("odd k accepted")
	}
	if _, err := New(Config{K: 60, N: 1, Tech: MEMS2D}); err == nil {
		t.Error("MEMS port limit ignored")
	}
}

// TestFig1aShape runs at the paper's k=16, where every swept rate fails a
// different number of switches; at k=8 the three lowest each fail one, so
// their order is sampling noise.
func TestFig1aShape(t *testing.T) {
	res, err := Fig1a(Fig1Config{K: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Coflow impact dominates flow impact at every rate (the paper's
	// central observation).
	for i := range res.Rates {
		if res.CoflowPct[i] <= res.FlowPct[i] {
			t.Errorf("rate %v: coflow%% %v <= flow%% %v", res.Rates[i], res.CoflowPct[i], res.FlowPct[i])
		}
		if res.FlowPct[i] < 0 || res.CoflowPct[i] > 100 {
			t.Errorf("rate %v: percentages out of range", res.Rates[i])
		}
	}
	// Both curves increase with failure rate.
	for i := 1; i < len(res.Rates); i++ {
		if res.CoflowPct[i] < res.CoflowPct[i-1] {
			t.Errorf("coflow curve not increasing at %v", res.Rates[i])
		}
	}
	// Magnification is substantial (the paper reports 3.3x to 90x; exact
	// values depend on the trace, but order-of-magnitude must hold at the
	// low-rate end).
	if res.Magnification[0] < 2 {
		t.Errorf("magnification at lowest rate = %v, want >= 2", res.Magnification[0])
	}
	// A single node failure must hit a visible share of coflows.
	if res.SingleCoflowPct <= res.SingleFlowPct || res.SingleCoflowPct < 1 {
		t.Errorf("single failure: coflow%% = %v, flow%% = %v", res.SingleCoflowPct, res.SingleFlowPct)
	}
	// Series rendering.
	f, c := res.Series("failure rate")
	if f.Len() != len(res.Rates) || c.Len() != len(res.Rates) {
		t.Error("series length mismatch")
	}
}

func TestFig1bLinkFailures(t *testing.T) {
	res, err := Fig1b(Fig1Config{K: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rates {
		if res.CoflowPct[i] <= res.FlowPct[i] {
			t.Errorf("rate %v: no coflow magnification for link failures", res.Rates[i])
		}
	}
	if res.SingleCoflowPct <= 0 {
		t.Error("single link failure affected nothing")
	}
}

func TestFig1WithExternalTrace(t *testing.T) {
	// The paper replays a coflow-benchmark file; exercise the same path:
	// generate -> serialize -> parse -> run, including the rack remap
	// (150 trace racks onto a 32-rack k=8 fabric).
	gen, err := coflow.Generate(coflow.GenConfig{Racks: 150, NumCoflows: 60, Duration: 600, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gen.Format(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := coflow.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fig1a(Fig1Config{K: 8, Seed: 11, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.CoflowPct[0] <= res.FlowPct[0] || res.CoflowPct[0] <= 0 {
		t.Errorf("external trace run: flow%%=%v coflow%%=%v", res.FlowPct[0], res.CoflowPct[0])
	}
}

func TestFig1NodeVsLinkSingleImpact(t *testing.T) {
	// The paper: a single node failure (29.6% of coflows) hurts more than
	// a single link failure (17%). Directionally, node > link.
	na, err := Fig1a(Fig1Config{K: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := Fig1b(Fig1Config{K: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if na.SingleCoflowPct <= nb.SingleCoflowPct {
		t.Errorf("single node %v%% <= single link %v%%; node failures should hit more coflows",
			na.SingleCoflowPct, nb.SingleCoflowPct)
	}
}

func TestFig1cShareBackupHasNoSlowdown(t *testing.T) {
	res, err := Fig1c(Fig1cConfig{K: 4, Seed: 2, Coflows: 12, Scenarios: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("architectures = %d", len(res))
	}
	byName := map[string]ArchSlowdowns{}
	for _, a := range res {
		byName[a.Name] = a
	}
	sb := byName["ShareBackup"]
	for _, s := range sb.Slowdowns {
		if math.Abs(s-1) > 1e-6 {
			t.Errorf("ShareBackup slowdown = %v, want exactly 1", s)
		}
	}
	if sb.Disconnected != 0 {
		t.Errorf("ShareBackup disconnected %d coflows", sb.Disconnected)
	}
	// Rerouting suffers: at least one affected coflow slows down under
	// each rerouting scheme.
	for _, name := range []string{"fat-tree", "F10"} {
		a := byName[name]
		if len(a.Slowdowns) == 0 {
			t.Fatalf("%s: no affected coflows measured", name)
		}
		worst := 0.0
		for _, s := range a.Slowdowns {
			if s > worst {
				worst = s
			}
			if s < 1-1e-6 {
				// Rerouting can occasionally speed up an
				// unaffected competitor, but an affected
				// coflow must not finish faster than baseline
				// by more than numerical noise... it can,
				// when a competing coflow is slowed even
				// more. Only sanity-check positivity here.
				if s <= 0 {
					t.Errorf("%s: non-positive slowdown %v", name, s)
				}
			}
		}
		if worst <= 1+1e-9 {
			t.Errorf("%s: max slowdown %v; rerouting should hurt some coflow", name, worst)
		}
	}
}

// TestFig1cConfigRejectsBadFields: a negative count or a negative or
// non-finite oversubscription is an error naming the field, returned before
// any work.
func TestFig1cConfigRejectsBadFields(t *testing.T) {
	for _, c := range []struct {
		field string
		cfg   Fig1cConfig
	}{
		{"Coflows", Fig1cConfig{Coflows: -1}},
		{"Scenarios", Fig1cConfig{Scenarios: -3}},
		{"Windows", Fig1cConfig{Windows: -1}},
		{"Oversub", Fig1cConfig{Oversub: -1}},
		{"Oversub", Fig1cConfig{Oversub: math.NaN()}},
		{"Oversub", Fig1cConfig{Oversub: math.Inf(1)}},
	} {
		c.cfg.K, c.cfg.Seed = 4, 2
		_, err := Fig1c(c.cfg)
		if err == nil || !strings.Contains(err.Error(), "Fig1cConfig."+c.field) {
			t.Errorf("%+v: err = %v, want one naming %s", c.cfg, err, c.field)
		}
	}
}

func TestFig1cMultiWindow(t *testing.T) {
	res, err := Fig1c(Fig1cConfig{K: 4, Seed: 4, Coflows: 6, Scenarios: 6, Windows: 3})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ArchSlowdowns{}
	for _, a := range res {
		byName[a.Name] = a
	}
	sb := byName["ShareBackup"]
	if len(sb.Slowdowns) == 0 {
		t.Fatal("multi-window run measured nothing")
	}
	for _, s := range sb.Slowdowns {
		if math.Abs(s-1) > 1e-6 {
			t.Errorf("ShareBackup slowdown %v in multi-window run", s)
		}
	}
}

func TestTable3Checkmarks(t *testing.T) {
	rows, err := Table3(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][3]bool{ // bandwidth, dilation, upstream
		"ShareBackup": {true, true, true},
		"Fat-tree":    {false, true, false},
		"F10":         {false, false, true},
	}
	for _, r := range rows {
		w, ok := want[r.Arch]
		if !ok {
			t.Fatalf("unexpected architecture %q", r.Arch)
		}
		if r.NoBandwidthLoss != w[0] {
			t.Errorf("%s: NoBandwidthLoss = %v (throughput %v vs %v), want %v",
				r.Arch, r.NoBandwidthLoss, r.Throughput, r.BaselineThroughput, w[0])
		}
		if r.NoPathDilation != w[1] {
			t.Errorf("%s: NoPathDilation = %v (max hops %d), want %v", r.Arch, r.NoPathDilation, r.MaxHops, w[1])
		}
		if r.NoUpstreamRepair != w[2] {
			t.Errorf("%s: NoUpstreamRepair = %v, want %v", r.Arch, r.NoUpstreamRepair, w[2])
		}
	}
}

func TestCapacityMeasured(t *testing.T) {
	res, err := Capacity(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.ToleratedSwitchFailures != 2 {
		t.Errorf("tolerated = %d, want n=2", res.ToleratedSwitchFailures)
	}
	if res.LinkFailuresHandled != 4 {
		t.Errorf("link failures handled = %d, want k/2=4", res.LinkFailuresHandled)
	}
	if math.Abs(res.BackupRatio-0.5) > 1e-9 {
		t.Errorf("backup ratio = %v, want 0.5", res.BackupRatio)
	}
	if res.PGroupOverflow > 1e-5 {
		t.Errorf("overflow probability = %v, want negligible", res.PGroupOverflow)
	}
}

func TestRecoveryLatencyComparison(t *testing.T) {
	rows, err := RecoveryLatency(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var sbX, sbM, reroute *LatencyRow
	for i := range rows {
		switch {
		case strings.Contains(rows[i].Scheme, "crosspoint"):
			sbX = &rows[i]
		case strings.Contains(rows[i].Scheme, "MEMS"):
			sbM = &rows[i]
		default:
			reroute = &rows[i]
		}
	}
	if sbX == nil || sbM == nil || reroute == nil {
		t.Fatalf("missing schemes in %+v", rows)
	}
	if sbX.Reconfig != 70*time.Nanosecond || sbM.Reconfig != 40*time.Microsecond {
		t.Errorf("reconfig delays = %v, %v", sbX.Reconfig, sbM.Reconfig)
	}
	// Section 5.3's claim: ShareBackup recovers as fast as local
	// rerouting (here faster: circuit reset + sub-ms comms beat a ~1ms
	// rule update).
	if sbX.Total > reroute.Total {
		t.Errorf("ShareBackup(crosspoint) %v slower than rerouting %v", sbX.Total, reroute.Total)
	}
	if sbM.Total > reroute.Total {
		t.Errorf("ShareBackup(MEMS) %v slower than rerouting %v", sbM.Total, reroute.Total)
	}
}

func TestTableSizes(t *testing.T) {
	rows, err := TableSizes([]int{4, 16, 48, 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Inbound != r.K/2 {
			t.Errorf("k=%d: inbound = %d, want k/2", r.K, r.Inbound)
		}
		if r.Outbound != r.K*r.K/4 {
			t.Errorf("k=%d: outbound = %d, want k^2/4", r.K, r.Outbound)
		}
	}
	last := rows[len(rows)-1]
	if last.K != 64 || last.Total != 1056 || last.Hosts != 65536 {
		t.Errorf("k=64 row = %+v, want 1056 entries for 65536 hosts", last)
	}
}

func TestTable2Rendering(t *testing.T) {
	tbl, err := Table2(48, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"ShareBackup(n=1)", "AspenTree", "1:1Backup", "E-DC", "O-DC"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 rendering missing %q:\n%s", want, out)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	series, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	// 2 price points x (2 ShareBackup n values + Aspen + 1:1).
	if len(series) != 8 {
		t.Fatalf("series = %d, want 8", len(series))
	}
	for _, s := range series {
		if s.Len() != 8 {
			t.Errorf("%s: %d points", s.Name, s.Len())
		}
	}
	// ShareBackup(n=1) E-DC ends below 7% at k=64 and is far below Aspen.
	var sb1, aspen *float64
	for _, s := range series {
		last := s.Y[s.Len()-1]
		switch s.Name {
		case "ShareBackup(n=1) E-DC":
			sb1 = &last
		case "AspenTree E-DC":
			aspen = &last
		}
	}
	if sb1 == nil || aspen == nil {
		t.Fatal("expected series missing")
	}
	if *sb1 > 0.07 {
		t.Errorf("ShareBackup(n=1) E-DC at k=64 = %v, want < 7%%", *sb1)
	}
	if *aspen < 5*(*sb1) {
		t.Errorf("Aspen (%v) not clearly above ShareBackup (%v)", *aspen, *sb1)
	}
}
