package sharebackup

import (
	"reflect"
	"testing"
)

// These tests pin the experiment harness entry points the paper's failure
// study rests on — series shapes, the coflow-magnification property, and
// determinism — at laptop scale, so refactors of the workload or failure
// machinery can't silently bend the figures.

func fig1TestConfig() Fig1Config {
	return Fig1Config{K: 4, Seed: 7, Rates: []float64{0.05, 0.1, 0.2}, Trials: 2}
}

func checkFig1Result(t *testing.T, res *Fig1Result, rates int) {
	t.Helper()
	if len(res.Rates) != rates || len(res.FlowPct) != rates ||
		len(res.CoflowPct) != rates || len(res.Magnification) != rates {
		t.Fatalf("series lengths: rates=%d flow=%d coflow=%d mag=%d, want %d each",
			len(res.Rates), len(res.FlowPct), len(res.CoflowPct), len(res.Magnification), rates)
	}
	for i := range res.Rates {
		if res.FlowPct[i] < 0 || res.FlowPct[i] > 100 || res.CoflowPct[i] < 0 || res.CoflowPct[i] > 100 {
			t.Fatalf("rate %v: percentages out of range: flows=%v coflows=%v",
				res.Rates[i], res.FlowPct[i], res.CoflowPct[i])
		}
		// A coflow is affected when ANY of its flows is — the paper's
		// magnification argument. Equality holds only in degenerate
		// one-flow coflows.
		if res.CoflowPct[i] < res.FlowPct[i] {
			t.Fatalf("rate %v: coflow%% (%v) < flow%% (%v) breaks the magnification property",
				res.Rates[i], res.CoflowPct[i], res.FlowPct[i])
		}
	}
	if res.SingleCoflowPct < res.SingleFlowPct {
		t.Fatalf("single failure: coflow%% (%v) < flow%% (%v)", res.SingleCoflowPct, res.SingleFlowPct)
	}
	if res.SingleFlowPct <= 0 {
		t.Fatal("single failure affected no flows — failure injection broken")
	}
	flows, coflows := res.Series("x")
	if len(flows.Y) != rates || len(coflows.Y) != rates {
		t.Fatalf("Series lengths: %d/%d, want %d", len(flows.Y), len(coflows.Y), rates)
	}
}

func TestFig1aSmall(t *testing.T) {
	res, err := Fig1a(fig1TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkFig1Result(t, res, 3)

	// Same seed, same result: the harness must be deterministic.
	again, err := Fig1a(fig1TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.FlowPct {
		if res.FlowPct[i] != again.FlowPct[i] || res.CoflowPct[i] != again.CoflowPct[i] {
			t.Fatalf("rate %v not deterministic: %v/%v vs %v/%v", res.Rates[i],
				res.FlowPct[i], res.CoflowPct[i], again.FlowPct[i], again.CoflowPct[i])
		}
	}
}

func TestFig1bSmall(t *testing.T) {
	res, err := Fig1b(fig1TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkFig1Result(t, res, 3)
}

func TestTransientStudySmall(t *testing.T) {
	rows, err := TransientStudy(TransientConfig{K: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d schemes, want 3 (ShareBackup, fat-tree, F10)", len(rows))
	}
	byScheme := make(map[string]TransientRow, len(rows))
	for _, r := range rows {
		byScheme[r.Scheme] = r
		if r.MeanSlowdown < 1 || r.MaxSlowdown < r.MeanSlowdown {
			t.Fatalf("%s: implausible slowdowns mean=%v max=%v", r.Scheme, r.MeanSlowdown, r.MaxSlowdown)
		}
	}
	sb, ok := byScheme["ShareBackup"]
	if !ok {
		t.Fatalf("no ShareBackup row in %v", rows)
	}
	if sb.Disconnected != 0 {
		t.Fatalf("ShareBackup disconnected %d flows — full recovery broken", sb.Disconnected)
	}
	// ShareBackup's gap is circuit reconfiguration (sub-ms); rerouting
	// schemes wait out detection plus table updates. The ordering is the
	// point of the paper.
	for _, r := range rows {
		if r.Scheme == "ShareBackup" {
			continue
		}
		if sb.Gap >= r.Gap {
			t.Fatalf("ShareBackup gap %v not shorter than %s gap %v", sb.Gap, r.Scheme, r.Gap)
		}
		if sb.MeanSlowdown > r.MeanSlowdown+1e-9 {
			t.Fatalf("ShareBackup mean slowdown %v worse than %s %v", sb.MeanSlowdown, r.Scheme, r.MeanSlowdown)
		}
	}
	// Restoring full capacity, the slowdown should stay within a few
	// permille of 1.0 at these flow sizes.
	if sb.MeanSlowdown > 1.05 {
		t.Fatalf("ShareBackup mean slowdown %v, want ≈1.0", sb.MeanSlowdown)
	}
}

// The sweep engine's contract surfaced at the experiment level: Fig1a merges
// to the same result for any worker count.
func TestFig1aWorkerCountInvariance(t *testing.T) {
	var want *Fig1Result
	for _, workers := range []int{1, 4, 0} {
		cfg := fig1TestConfig()
		cfg.Workers = workers
		res, err := Fig1a(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = res
		} else if !reflect.DeepEqual(res, want) {
			t.Fatalf("workers=%d: result differs from workers=1:\n%+v\nvs\n%+v", workers, res, want)
		}
	}
}
